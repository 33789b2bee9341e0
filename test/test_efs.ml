(* The extent-based comparator: data integrity, extent bookkeeping,
   free-space reuse, and the title-claim sanity check against UFS. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_efs ?(extent_kb = 56) f =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e in
  let pool = Vm.Pool.create e (Vm.Param.default ~memory_mb:4 ()) in
  let _d = Vm.Pageout.start pool cpu in
  let dev = Disk.Blkdev.of_device (Disk.Device.create e Helpers.small_disk) in
  let efs = Efs.create e cpu pool dev ~extent_kb () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e efs));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "efs test hung"

let test_roundtrip () =
  with_efs (fun _e efs ->
      let f = Efs.creat efs "data" in
      let n = 200_000 in
      let w = Bytes.init n (fun i -> Helpers.pattern_byte ~seed:2 i) in
      Efs.write efs f ~off:0 ~buf:w ~len:n;
      Efs.fsync efs f;
      check_int "size" n (Efs.size f);
      Efs.reset_readahead efs f;
      let r = Bytes.create n in
      check_int "full read" n (Efs.read efs f ~off:0 ~buf:r ~len:n);
      check_bool "content" true (Bytes.equal w r);
      (* lookup finds it; short read at EOF *)
      let f2 = Efs.lookup efs "data" in
      let tail = Bytes.create 100 in
      check_int "short at EOF" 50 (Efs.read efs f2 ~off:(n - 50) ~buf:tail ~len:100))

let test_extent_shape () =
  with_efs ~extent_kb:64 (fun _e efs ->
      let f = Efs.creat efs "shaped" in
      let buf = Bytes.make 8192 'x' in
      (* 64KB extent = 8 blocks: 20 block writes = 3 extents *)
      for i = 0 to 19 do
        Efs.write efs f ~off:(i * 8192) ~buf ~len:8192
      done;
      check_int "three extents" 3 (Efs.extent_count f);
      (* a sparse write far away allocates exactly one more extent *)
      Efs.write efs f ~off:(100 * 8192) ~buf ~len:8192;
      check_int "one more for the sparse block" 4 (Efs.extent_count f);
      (* the hole between reads back as zeros *)
      Efs.fsync efs f;
      Efs.reset_readahead efs f;
      let r = Bytes.make 8192 'q' in
      ignore (Efs.read efs f ~off:(50 * 8192) ~buf:r ~len:8192);
      check_bool "hole is zeros" true (Bytes.for_all (fun c -> c = '\000') r))

let test_delete_frees_space () =
  with_efs (fun _e efs ->
      let wild = Bytes.make 8192 'y' in
      let f = Efs.creat efs "big" in
      for i = 0 to 255 do
        Efs.write efs f ~off:(i * 8192) ~buf:wild ~len:8192
      done;
      Efs.fsync efs f;
      Efs.delete efs "big";
      check_bool "name gone" true
        (try
           ignore (Efs.lookup efs "big");
           false
         with Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> true);
      (* the space is reusable: write it all again *)
      let g = Efs.creat efs "big2" in
      for i = 0 to 255 do
        Efs.write efs g ~off:(i * 8192) ~buf:wild ~len:8192
      done;
      Efs.fsync efs g)

let test_enospc () =
  with_efs ~extent_kb:1024 (fun _e efs ->
      let f = Efs.creat efs "hog" in
      let buf = Bytes.make 8192 'h' in
      check_bool "device fills eventually" true
        (try
           for i = 0 to 10_000 do
             Efs.write efs f ~off:(i * 8192) ~buf ~len:8192
           done;
           false
         with Vfs.Errno.Error (Vfs.Errno.ENOSPC, _) -> true))

let test_title_claim_parity () =
  (* clustered UFS must be within 15% of a same-sized-extent FS on
     sequential reads over the same hardware *)
  let efs_fsr =
    let e = Sim.Engine.create () in
    let cpu = Sim.Cpu.create e in
    let pool = Vm.Pool.create e (Vm.Param.default ~memory_mb:4 ()) in
    let _d = Vm.Pageout.start pool cpu in
    let dev = Disk.Blkdev.of_device (Disk.Device.create e Helpers.small_disk) in
    let efs = Efs.create e cpu pool dev ~extent_kb:64 () in
    let result = ref 0. in
    Sim.Engine.spawn e (fun () ->
        let f = Efs.creat efs "b" in
        let buf = Bytes.make 8192 'b' in
        for i = 0 to 511 do
          Efs.write efs f ~off:(i * 8192) ~buf ~len:8192
        done;
        Efs.fsync efs f;
        Efs.reset_readahead efs f;
        let t0 = Sim.Engine.now e in
        for i = 0 to 511 do
          ignore (Efs.read efs f ~off:(i * 8192) ~buf ~len:8192)
        done;
        result := 4096. /. Sim.Time.to_sec_float (Sim.Engine.now e - t0));
    Sim.Engine.run e;
    !result
  in
  let ufs_fsr =
    Helpers.in_machine ~memory_mb:4 (fun m ->
        let local = Workload.Handle.Local m.Clusterfs.Machine.fs in
        let cfg =
          { Workload.Iobench.default_config with Workload.Iobench.file_mb = 4 }
        in
        ignore (Workload.Iobench.run_phase local cfg Workload.Iobench.FSW);
        (Workload.Iobench.run_phase local cfg Workload.Iobench.FSR)
          .Workload.Iobench.kb_per_sec)
  in
  check_bool
    (Printf.sprintf "extent-like: UFS %.0f within 15%% of EFS %.0f" ufs_fsr
       efs_fsr)
    true
    (ufs_fsr > 0.85 *. efs_fsr)

let suites =
  [
    ( "efs",
      [
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "extent shape" `Quick test_extent_shape;
        Alcotest.test_case "delete frees space" `Quick test_delete_frees_space;
        Alcotest.test_case "ENOSPC" `Quick test_enospc;
        Alcotest.test_case "title claim parity" `Slow test_title_claim_parity;
      ] );
  ]
