(* Quickstart: build a simulated SPARCstation-era machine with a
   clustered UFS, use the file system like a normal one, and look at
   what the clustering machinery did.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A machine is one value: CPU + 8MB RAM + a 400MB disk + mounted UFS.
     Config.config_a is the paper's clustered configuration (120KB
     clusters, no rotational delay, free-behind, 240KB write limit). *)
  let machine = Clusterfs.Machine.create Clusterfs.Config.config_a in

  (* Everything that touches the file system runs inside a simulated
     process: Machine.run drives the simulation until it finishes. *)
  Clusterfs.Machine.run machine (fun m ->
      let fs = m.Clusterfs.Machine.fs in

      (* ordinary file system calls *)
      Ufs.Fs.mkdir fs "/projects";
      let file = Ufs.Fs.creat fs "/projects/report.dat" in
      let mb = 4 in
      let block = Bytes.make 8192 'r' in
      for i = 0 to (mb * 128) - 1 do
        Ufs.Fs.write fs file ~off:(i * 8192) ~buf:block ~len:8192
      done;
      Ufs.Fs.fsync fs file;
      Printf.printf "wrote %d MB in %s of simulated time\n" mb
        (Sim.Time.to_string (Sim.Engine.now m.Clusterfs.Machine.engine));

      (* read it back with a cold cache, so the clustered read-ahead
         machinery (not the page cache) serves the data *)
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool file.Ufs.Types.inum;
      Ufs.Rstream.reset file.Ufs.Types.rs;
      let t0 = Sim.Engine.now m.Clusterfs.Machine.engine in
      let buf = Bytes.create 8192 in
      for i = 0 to (mb * 128) - 1 do
        ignore (Ufs.Fs.read fs file ~off:(i * 8192) ~buf ~len:8192)
      done;
      let dt = Sim.Engine.now m.Clusterfs.Machine.engine - t0 in
      Printf.printf "read it back at %.0f KB/s\n"
        (float_of_int (mb * 1024) /. Sim.Time.to_sec_float dt);
      Ufs.Iops.iput fs file;

      (* what did clustering do? *)
      let s = fs.Ufs.Types.stats in
      Printf.printf "\ndisk I/O shape:\n";
      Printf.printf "  write requests: %4d (avg %.1f blocks each)\n"
        s.Ufs.Types.push_ios
        (float_of_int s.Ufs.Types.push_blocks
        /. float_of_int (max 1 s.Ufs.Types.push_ios));
      Printf.printf "  read requests:  %4d (avg %.1f blocks each)\n"
        (s.Ufs.Types.pgin_ios + s.Ufs.Types.ra_ios)
        (float_of_int (s.Ufs.Types.pgin_blocks + s.Ufs.Types.ra_blocks)
        /. float_of_int (max 1 (s.Ufs.Types.pgin_ios + s.Ufs.Types.ra_ios)));
      Printf.printf "  read-aheads:    %4d\n" s.Ufs.Types.ra_ios;

      (* the file's physical layout *)
      Printf.printf "\nphysical extents of /projects/report.dat:\n";
      List.iter
        (fun (lbn, frag, blocks) ->
          Printf.printf "  lbn %4d -> frag %6d, %3d blocks (%d KB)\n" lbn frag
            blocks
            (blocks * 8))
        (Ufs.Fs.extent_map fs "/projects/report.dat");

      Ufs.Fs.unmount fs);

  (* offline consistency check of the disk image we just unmounted *)
  let report = Ufs.Fsck.check machine.Clusterfs.Machine.dev in
  Format.printf "@.%a@." Ufs.Fsck.pp report
