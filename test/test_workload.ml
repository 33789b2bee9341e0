(* Tests for the workload generators: IObench, the mmap CPU benchmark,
   MusBus, extent measurement, the ager — and their determinism. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_iobench =
  {
    Workload.Iobench.default_config with
    Workload.Iobench.file_mb = 2;
    random_ops = 64;
  }

let test_iobench_runs_all_phases () =
  let local =
    Helpers.in_machine ~memory_mb:4 (fun m ->
        Workload.Iobench.run_all
          (Workload.Handle.Local m.Clusterfs.Machine.fs)
          small_iobench)
  in
  (* the same five phases through a one-client NFS mount *)
  let t =
    Clusterfs.Topology.create ~clients:1
      (Clusterfs.Config.with_memory_mb Clusterfs.Config.config_a 4)
  in
  let remote = ref [] in
  Clusterfs.Topology.run_clients t (fun c ->
      remote :=
        Workload.Iobench.run_all
          (Workload.Handle.Remote c.Clusterfs.Topology.mount)
          small_iobench);
  check_int "five remote phases" 5 (List.length !remote);
  List.iter2
    (fun (l : Workload.Iobench.result) (r : Workload.Iobench.result) ->
      let k = Workload.Iobench.kind_to_string l.Workload.Iobench.kind in
      check_bool (k ^ " same phase") true
        (l.Workload.Iobench.kind = r.Workload.Iobench.kind);
      check_int (k ^ " remote bytes = local bytes")
        l.Workload.Iobench.bytes_moved r.Workload.Iobench.bytes_moved;
      check_bool (k ^ " remote time advanced") true
        (r.Workload.Iobench.elapsed > 0))
    local !remote;
  check_int "five phases" 5 (List.length local);
  List.iter
    (fun (r : Workload.Iobench.result) ->
      check_bool
        (Printf.sprintf "%s rate positive"
           (Workload.Iobench.kind_to_string r.Workload.Iobench.kind))
        true
        (r.Workload.Iobench.kb_per_sec > 0.);
      check_bool "time advanced" true (r.Workload.Iobench.elapsed > 0);
      check_bool "CPU charged" true (r.Workload.Iobench.sys_cpu > 0))
    local;
  let rate k =
    (List.find
       (fun (r : Workload.Iobench.result) -> r.Workload.Iobench.kind = k)
       local)
      .Workload.Iobench.kb_per_sec
  in
  check_bool "sequential read beats random read" true
    (rate Workload.Iobench.FSR > rate Workload.Iobench.FRR)

let test_iobench_bytes_accounted () =
  Helpers.in_machine ~memory_mb:4 (fun m ->
      let local = Workload.Handle.Local m.Clusterfs.Machine.fs in
      let phase = Workload.Iobench.run_phase local small_iobench in
      let r = phase Workload.Iobench.FSW in
      check_int "FSW moves the whole file" (2 * 1024 * 1024)
        r.Workload.Iobench.bytes_moved;
      let r = phase Workload.Iobench.FRR in
      check_int "FRR moves ops * request" (64 * 8192)
        r.Workload.Iobench.bytes_moved)

let test_iobench_deterministic () =
  let run () =
    Helpers.in_machine ~memory_mb:4 (fun m ->
        List.map
          (fun (r : Workload.Iobench.result) -> r.Workload.Iobench.elapsed)
          (Workload.Iobench.run_all
             (Workload.Handle.Local m.Clusterfs.Machine.fs)
             small_iobench))
  in
  Alcotest.(check (list int))
    "bit-for-bit repeatable simulated times" (run ()) (run ())

let test_mmap_bench () =
  Helpers.in_machine ~memory_mb:4 (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      Workload.Iobench.prepare (Workload.Handle.Local fs) small_iobench;
      let r = Workload.Mmap_bench.run fs ~path:"/iobench" ~file_mb:2 in
      check_bool "CPU charged" true (r.Workload.Mmap_bench.sys_cpu > 0);
      check_bool "rate positive" true (r.Workload.Mmap_bench.kb_per_sec > 0.);
      check_int "file size" 2 r.Workload.Mmap_bench.file_mb)

let test_musbus () =
  Helpers.in_machine ~memory_mb:4 (fun m ->
      let cfg =
        { Workload.Musbus.default_config with Workload.Musbus.users = 3; iterations = 5 }
      in
      let r = Workload.Musbus.run m.Clusterfs.Machine.fs cfg in
      check_int "all work units" 15 r.Workload.Musbus.work_units;
      check_bool "throughput positive" true (r.Workload.Musbus.units_per_sec > 0.))

let test_extents_measurement () =
  Helpers.in_machine (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let meas = Workload.Extents.write_and_measure fs ~path:"/e" ~mb:2 in
      check_int "wrote it all" (2 * 1024 * 1024) meas.Workload.Extents.file_bytes;
      check_bool "few extents on a fresh fs" true
        (meas.Workload.Extents.extents <= 3);
      check_bool "avg consistent with count" true
        (meas.Workload.Extents.avg_extent_kb
         *. float_of_int meas.Workload.Extents.extents
        >= 2040.);
      let again = Workload.Extents.measure_path fs "/e" in
      check_int "measure_path agrees" meas.Workload.Extents.extents
        again.Workload.Extents.extents)

let test_ager_fragments () =
  Helpers.in_machine (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let rng = Sim.Rng.create ~seed:5 in
      let opts =
        {
          Ufs.Ager.defaults with
          Ufs.Ager.target_util = 0.6;
          churn_rounds = 2;
          large_max_kb = 128;
        }
      in
      let live = Ufs.Ager.age fs ~rng ~opts () in
      check_bool "files survive" true (live > 10);
      (* utilisation in the right ballpark *)
      let s = Ufs.Fs.statfs fs in
      let used =
        s.Ufs.Fs.f_frags - ((s.Ufs.Fs.f_bfree * Ufs.Layout.fpb) + s.Ufs.Fs.f_ffree)
      in
      let util = float_of_int used /. float_of_int s.Ufs.Fs.f_frags in
      check_bool
        (Printf.sprintf "utilisation ~0.6 (got %.2f)" util)
        true
        (util > 0.5 && util < 0.75);
      (* a file squeezed into the churned space fragments more than on a
         fresh fs *)
      let meas = Workload.Extents.write_and_measure fs ~path:"/squeezed" ~mb:4 in
      check_bool
        (Printf.sprintf "aged fs fragments files (%d extents)"
           meas.Workload.Extents.extents)
        true
        (meas.Workload.Extents.extents > 3))

let suites =
  [
    ( "workload",
      [
        Alcotest.test_case "iobench all phases" `Quick
          test_iobench_runs_all_phases;
        Alcotest.test_case "iobench byte accounting" `Quick
          test_iobench_bytes_accounted;
        Alcotest.test_case "iobench deterministic" `Quick
          test_iobench_deterministic;
        Alcotest.test_case "mmap bench" `Quick test_mmap_bench;
        Alcotest.test_case "musbus" `Quick test_musbus;
        Alcotest.test_case "extents" `Quick test_extents_measurement;
        Alcotest.test_case "ager fragments" `Slow test_ager_fragments;
      ] );
  ]
