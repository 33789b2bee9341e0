(* The allocator study from the paper's "Allocator details" section:
   does the FFS allocator lay files out contiguously enough that
   clustering works without preallocation?

   We write a large file on a fresh file system, then age the file
   system with create/delete churn and squeeze another large file into
   what is left, printing extent statistics and the effect on actual
   sequential-read throughput.

   Run with:  dune exec examples/fragmentation.exe *)

let small_disk_config =
  (* a 100MB drive keeps the churn quick *)
  {
    Clusterfs.Config.config_a with
    Clusterfs.Config.disk =
      {
        Disk.Device.default_config with
        Disk.Device.geom =
          Disk.Geom.create ~rpm:4316 ~nheads:14
            ~zones:[ { Disk.Geom.cyls = 300; spt = 48 } ]
            ();
      };
  }

let show label (meas : Workload.Extents.measurement) =
  Printf.printf "%s\n" label;
  Printf.printf "  file size:      %d KB\n" (meas.Workload.Extents.file_bytes / 1024);
  Printf.printf "  extents:        %d\n" meas.Workload.Extents.extents;
  Printf.printf "  average extent: %.0f KB\n" meas.Workload.Extents.avg_extent_kb;
  Printf.printf "  largest:        %.0f KB   smallest: %.0f KB\n\n"
    meas.Workload.Extents.largest_extent_kb
    meas.Workload.Extents.smallest_extent_kb

let read_rate fs path =
  let ip = Ufs.Fs.namei fs path in
  Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
  Ufs.Rstream.reset ip.Ufs.Types.rs;
  let engine = fs.Ufs.Types.engine in
  let t0 = Sim.Engine.now engine in
  let buf = Bytes.create 8192 in
  let size = ip.Ufs.Types.size in
  let rec loop off =
    if off < size then begin
      ignore (Ufs.Fs.read fs ip ~off ~buf ~len:8192);
      loop (off + 8192)
    end
  in
  loop 0;
  let dt = Sim.Engine.now engine - t0 in
  Ufs.Iops.iput fs ip;
  float_of_int (size / 1024) /. Sim.Time.to_sec_float dt

let () =
  let m = Clusterfs.Machine.create small_disk_config in
  Clusterfs.Machine.run m (fun m ->
      let fs = m.Clusterfs.Machine.fs in

      (* best case: one file on an empty file system (the paper saw an
         average extent of ~1.5MB in a 13MB file) *)
      let fresh = Workload.Extents.write_and_measure fs ~path:"/fresh" ~mb:13 in
      show "fresh file system, 13MB file (paper: ~1.5MB average extent):"
        fresh;
      let fresh_rate = read_rate fs "/fresh" in
      Ufs.Fs.unlink fs "/fresh";

      (* age it: fill to ~80%, churn, repeat *)
      Printf.printf "ageing the file system (create/delete churn)...\n%!";
      let rng = Sim.Rng.create ~seed:1991 in
      let live =
        Ufs.Ager.age fs ~rng
          ~opts:
            {
              Ufs.Ager.defaults with
              Ufs.Ager.target_util = 0.8;
              churn_rounds = 3;
            }
          ()
      in
      let s = Ufs.Fs.statfs fs in
      Printf.printf "  %d files live, %d%% full\n\n" live
        (100
        * (s.Ufs.Fs.f_frags - ((s.Ufs.Fs.f_bfree * 8) + s.Ufs.Fs.f_ffree))
        / s.Ufs.Fs.f_frags);

      (* worst case: squeeze one more big file into the remnants
         (the paper saw ~62KB average extents) *)
      let aged = Workload.Extents.write_and_measure fs ~path:"/squeezed" ~mb:16 in
      show "aged file system, squeezed file (paper: ~62KB average extent):"
        aged;
      let aged_rate = read_rate fs "/squeezed" in

      Printf.printf "sequential read throughput:\n";
      Printf.printf "  fresh layout: %.0f KB/s\n" fresh_rate;
      Printf.printf "  aged layout:  %.0f KB/s (%.0f%% of fresh)\n" aged_rate
        (100. *. aged_rate /. fresh_rate);
      Printf.printf
        "\n(clustering degrades gracefully: bmap returns shorter runs, the\n\
        \ cluster size follows, and the file is still read correctly)\n";
      Ufs.Fs.unmount fs);
  let report = Ufs.Fsck.check m.Clusterfs.Machine.dev in
  Printf.printf "\nfsck after the whole ordeal: %s\n"
    (if Ufs.Fsck.ok report then "clean" else "PROBLEMS FOUND")
