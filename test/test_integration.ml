(* End-to-end integration: the paper's headline claims as assertions,
   cross-config behaviour, full determinism, and fsck after everything. *)

let check_bool = Alcotest.(check bool)

(* paper-shaped configs on the small test disk, full-size memory *)
let shrink (c : Clusterfs.Config.t) =
  {
    c with
    Clusterfs.Config.disk =
      { c.Clusterfs.Config.disk with Disk.Device.geom = Helpers.small_geom };
    mkfs =
      { c.Clusterfs.Config.mkfs with Ufs.Fs.fpg = 4096; ipg = 512 };
    memory_mb = 4;
  }

let bench_cfg =
  { Workload.Iobench.default_config with Workload.Iobench.file_mb = 8; random_ops = 256 }

let phase fs = Workload.Iobench.run_phase (Workload.Handle.Local fs) bench_cfg

let seq_read_rate config =
  let m = Clusterfs.Machine.create (shrink config) in
  let r =
    Clusterfs.Machine.run m (fun m ->
        let fs = m.Clusterfs.Machine.fs in
        ignore (phase fs Workload.Iobench.FSW);
        phase fs Workload.Iobench.FSR)
  in
  (m, r.Workload.Iobench.kb_per_sec)

let test_clustering_doubles_sequential_reads () =
  let m_a, fsr_a = seq_read_rate Clusterfs.Config.config_a in
  let m_d, fsr_d = seq_read_rate Clusterfs.Config.config_d in
  check_bool
    (Printf.sprintf "FSR A (%.0f) ~2x FSR D (%.0f)" fsr_a fsr_d)
    true
    (fsr_a > 1.6 *. fsr_d && fsr_a < 2.6 *. fsr_d);
  (* both leave consistent file systems behind *)
  Helpers.fsck_clean m_a;
  Helpers.fsck_clean m_d

let test_random_reads_unaffected () =
  let rate config =
    let m = Clusterfs.Machine.create (shrink config) in
    Clusterfs.Machine.run m (fun m ->
        let fs = m.Clusterfs.Machine.fs in
        Workload.Iobench.prepare (Workload.Handle.Local fs) bench_cfg;
        (phase fs Workload.Iobench.FRR)
          .Workload.Iobench.kb_per_sec)
  in
  let a = rate Clusterfs.Config.config_a and d = rate Clusterfs.Config.config_d in
  check_bool
    (Printf.sprintf "FRR A (%.0f) within 15%% of FRR D (%.0f)" a d)
    true
    (a > 0.85 *. d && a < 1.15 *. d)

let test_cluster_io_counts () =
  let pattern config =
    let m = Clusterfs.Machine.create (shrink config) in
    Clusterfs.Machine.run m (fun m ->
        let fs = m.Clusterfs.Machine.fs in
        ignore (phase fs Workload.Iobench.FSW);
        ignore (phase fs Workload.Iobench.FSR);
        let s = fs.Ufs.Types.stats in
        let reads = s.Ufs.Types.pgin_ios + s.Ufs.Types.ra_ios in
        let blocks = s.Ufs.Types.pgin_blocks + s.Ufs.Types.ra_blocks in
        ( float_of_int blocks /. float_of_int (max 1 reads),
          float_of_int s.Ufs.Types.push_blocks
          /. float_of_int (max 1 s.Ufs.Types.push_ios) ))
  in
  let ra, wa = pattern Clusterfs.Config.config_a in
  let rd, wd = pattern Clusterfs.Config.config_d in
  check_bool (Printf.sprintf "A reads in clusters (%.1f blocks/I/O)" ra) true
    (ra > 8.);
  check_bool (Printf.sprintf "A writes in clusters (%.1f blocks/I/O)" wa) true
    (wa > 8.);
  check_bool (Printf.sprintf "D reads block-at-a-time (%.2f)" rd) true
    (rd < 1.2);
  check_bool (Printf.sprintf "D writes block-at-a-time (%.2f)" wd) true
    (wd < 1.2)

let test_full_machine_determinism () =
  let run () =
    let m = Clusterfs.Machine.create (shrink Clusterfs.Config.config_a) in
    Clusterfs.Machine.run m (fun m ->
        let fs = m.Clusterfs.Machine.fs in
        ignore (Workload.Iobench.run_all (Workload.Handle.Local fs) bench_cfg);
        ignore
          (Workload.Musbus.run fs
             { Workload.Musbus.default_config with Workload.Musbus.users = 4; iterations = 6 });
        Ufs.Fs.unmount fs;
        Sim.Engine.now m.Clusterfs.Machine.engine)
  in
  Alcotest.(check int) "identical final virtual time" (run ()) (run ())

let test_mixed_workload_fsck_clean () =
  let m = Helpers.machine () in
  Clusterfs.Machine.run m (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      (* a mix of everything at once: three concurrent processes *)
      let e = m.Clusterfs.Machine.engine in
      let remaining = ref 3 in
      let done_cv = Sim.Condition.create e "done" in
      let finish () =
        decr remaining;
        if !remaining = 0 then Sim.Condition.broadcast done_cv
      in
      Sim.Engine.spawn e (fun () ->
          let ip = Ufs.Fs.creat fs "/stream" in
          Helpers.write_pattern fs ip ~seed:1 ~off:0 ~len:(3 * 1024 * 1024);
          Ufs.Fs.fsync fs ip;
          Helpers.check_pattern fs ip ~seed:1 ~off:0 ~len:(3 * 1024 * 1024);
          Ufs.Iops.iput fs ip;
          finish ());
      Sim.Engine.spawn e (fun () ->
          Ufs.Fs.mkdir fs "/many";
          for i = 0 to 60 do
            let p = Printf.sprintf "/many/f%d" i in
            let ip = Ufs.Fs.creat fs p in
            Helpers.write_pattern fs ip ~seed:i ~off:0 ~len:(512 * (1 + (i mod 9)));
            Ufs.Iops.iput fs ip;
            if i mod 3 = 0 then Ufs.Fs.unlink fs p
          done;
          finish ());
      Sim.Engine.spawn e (fun () ->
          for i = 0 to 10 do
            let p = Printf.sprintf "/spars%d" i in
            let ip = Ufs.Fs.creat fs p in
            let buf = Bytes.make 100 'z' in
            Ufs.Fs.write fs ip ~off:(i * 100 * 8192) ~buf ~len:100;
            Ufs.Iops.iput fs ip
          done;
          finish ());
      while !remaining > 0 do
        Sim.Condition.wait done_cv
      done;
      (* verify survivors *)
      for i = 0 to 60 do
        if i mod 3 <> 0 then begin
          let ip = Ufs.Fs.namei fs (Printf.sprintf "/many/f%d" i) in
          Helpers.check_pattern fs ip ~seed:i ~off:0 ~len:(512 * (1 + (i mod 9)));
          Ufs.Iops.iput fs ip
        end
      done);
  Helpers.fsck_clean m

let test_allocator_counts_after_everything () =
  Helpers.in_machine (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      ignore (Workload.Iobench.run_all (Workload.Handle.Local fs) bench_cfg);
      Alcotest.(check int)
        "incremental counts still match bitmaps" 0
        (List.length (Ufs.Alloc.check_counts fs)))

let suites =
  [
    ( "integration",
      [
        Alcotest.test_case "clustering ~2x sequential reads" `Slow
          test_clustering_doubles_sequential_reads;
        Alcotest.test_case "random reads unaffected" `Slow
          test_random_reads_unaffected;
        Alcotest.test_case "cluster I/O counts" `Slow test_cluster_io_counts;
        Alcotest.test_case "full-machine determinism" `Slow
          test_full_machine_determinism;
        Alcotest.test_case "mixed workload + fsck" `Slow
          test_mixed_workload_fsck_clean;
        Alcotest.test_case "allocator counts after bench" `Slow
          test_allocator_counts_after_everything;
      ] );
  ]
