(* Per-stream read-ahead and flush batching: the figure 10/11 goldens
   are frozen byte-for-byte, interleaved sequential readers each keep
   cluster read-ahead (locally and over NFS), the server still gathers
   eight interleaving client write streams into multi-block disk
   writes, the NFS client's predictor survives backward seeks
   instead of inheriting a read-ahead frontier it can never catch, and
   the window table both share keeps its bound and match rule, checked
   on the table alone. *)

module Exp = Clusterfs.Experiments

let bsize = Ufs.Layout.bsize

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------- figure 10/11 goldens ---------- *)

(* Captured from the seed before the per-stream window and flush
   batching work: single-stream behaviour must not move at all. *)
let golden_fig10 =
  [
    "A 1588.228805 1286.968128 1281.108960 484.549542 541.080722";
    "B 789.651859 787.941722 787.847756 480.714782 535.260200";
    "C 778.181804 787.941722 787.847756 480.748635 535.260200";
    "D 778.323464 787.044888 787.847756 480.748635 537.211962";
    "A/B 2.011303 1.633329 1.626087 1.007977 1.010874";
    "A/C 2.040948 1.633329 1.626087 1.007906 1.010874";
    "A/D 2.040577 1.635190 1.626087 1.007906 1.007202";
  ]

let fmt label (r : Exp.iobench_row) =
  Printf.sprintf "%s %.6f %.6f %.6f %.6f %.6f" label r.Exp.fsr r.Exp.fsu
    r.Exp.fsw r.Exp.frr r.Exp.fru

let test_fig10_golden () =
  let rows = Exp.figure10 ~file_mb:8 () in
  let lines =
    List.map (fun r -> fmt r.Exp.config r) rows
    @ List.map
        (fun (l, r) -> fmt l r)
        (Exp.ratios rows ~base:"A" ~others:[ "B"; "C"; "D" ])
  in
  check_string "figure 10/11 rows byte-identical to the seed"
    (String.concat "\n" golden_fig10)
    (String.concat "\n" lines)

(* ---------- interleaved sequential readers ---------- *)

let spec_of s =
  match Fio.Spec.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec %S did not parse: %s" s e

(* 20 ms mean think time makes each stream latency-bound, so a healthy
   per-stream predictor lets two readers overlap their stalls; the
   collapse this PR fixes showed the pair *slower* than one stream. *)
let ilv_single =
  spec_of "name=s file=ilv rw=read bs=8k size=2m think=20000 seed=21"

let ilv_pair =
  spec_of
    "name=p file=ilv rw=read bs=8k size=2m numjobs=2 share=1 \
     offset_increment=2m think=20000 seed=21"

let run_local spec =
  let m = Clusterfs.Machine.create Clusterfs.Config.config_a in
  let jobs =
    Clusterfs.Machine.run m (fun m ->
        Fio.Run.execute (Fio.Target.local m) spec)
  in
  (m, Fio.Report.make spec ~target:"local" jobs)

let test_interleaved_local () =
  let _, rs = run_local ilv_single in
  let m, rp = run_local ilv_pair in
  let bs = Fio.Report.bandwidth_kbps rs in
  let bp = Fio.Report.bandwidth_kbps rp in
  check_bool
    (Printf.sprintf "pair aggregate within 25%% of 2x single (%.0f vs %.0f)"
       bp bs)
    true
    (bp >= 1.5 *. bs);
  let st = m.Clusterfs.Machine.fs.Ufs.Types.stats in
  check_bool "second reader got its own window" true
    (st.Ufs.Types.ra_streams >= 1);
  (* both halves were read ahead in cluster-sized chunks: enough
     read-ahead I/Os to cover the whole file, each nearly a full
     cluster (15 blocks under config A) *)
  check_bool "read-ahead covered both streams" true
    (st.Ufs.Types.ra_ios >= 28);
  check_bool "read-ahead I/Os stayed cluster-sized" true
    (float_of_int st.Ufs.Types.ra_blocks
     /. float_of_int (max 1 st.Ufs.Types.ra_ios)
    >= 10.)

let test_interleaved_remote () =
  let run spec =
    let t = Clusterfs.Topology.create ~clients:1 Clusterfs.Config.config_a in
    let jobs =
      Clusterfs.Topology.run t (fun t ->
          Fio.Run.execute (Fio.Target.remote t) spec)
    in
    (t, Fio.Report.make spec ~target:"remote" jobs)
  in
  let _, rs = run ilv_single in
  let t, rp = run ilv_pair in
  let bs = Fio.Report.bandwidth_kbps rs in
  let bp = Fio.Report.bandwidth_kbps rp in
  check_bool
    (Printf.sprintf
       "remote pair aggregate within 25%% of 2x single (%.0f vs %.0f)" bp bs)
    true
    (bp >= 1.5 *. bs);
  let st =
    Nfs.Client.stats t.Clusterfs.Topology.clients.(0).Clusterfs.Topology.mount
  in
  check_bool "client made a window for the second reader" true
    (st.Nfs.Client.ra_streams >= 1);
  check_bool "client read ahead over both halves" true
    (st.Nfs.Client.ra_issued >= 28)

(* ---------- server write gathering under interleaved writers ---------- *)

let test_write_gather_8_clients () =
  let g = Fio.Scenarios.write_gather ~clients:8 () in
  check_bool "clients wrote through RPCs" true (g.Fio.Scenarios.write_rpcs > 0);
  check_bool
    (Printf.sprintf "disk writes stay clustered at 8 clients (%.1f blocks)"
       g.Fio.Scenarios.blocks_per_disk_write)
    true
    (g.Fio.Scenarios.blocks_per_disk_write >= 8.)

(* ---------- client backward seek ---------- *)

(* A 10 MB file against the mount's 8 MB cache: pass one reads it all
   (early pages evicted), then the reader seeks back to 0.  The old
   shared [nextrio] frontier only grew, so the re-read got no
   read-ahead at all; the repointed window must start a fresh
   frontier.  Separately, prefetched pages dropped without a use must
   show up in the wasted counter — that is the signal the adaptive
   window shrinks on. *)
let test_backward_seek () =
  let t = Clusterfs.Topology.create ~clients:1 Clusterfs.Config.config_a in
  Clusterfs.Topology.run t (fun t ->
      let m = t.Clusterfs.Topology.clients.(0).Clusterfs.Topology.mount in
      let st = Nfs.Client.stats m in
      let f = Nfs.Client.create m "big" in
      let mb = 1024 * 1024 in
      let chunk = Bytes.create 65536 in
      for i = 0 to (10 * mb / 65536) - 1 do
        Nfs.Client.write f ~off:(i * 65536) ~buf:chunk ~len:65536
      done;
      Nfs.Client.fsync f;
      Nfs.Client.invalidate f;
      let buf = Bytes.create 8192 in
      let readseq n =
        for i = 0 to n - 1 do
          ignore (Nfs.Client.read f ~off:(i * 8192) ~buf ~len:8192)
        done
      in
      readseq (10 * mb / 8192);
      let r1 = st.Nfs.Client.ra_issued in
      check_bool "first pass read ahead" true (r1 > 0);
      (* seek back to 0 and re-read the (evicted) first 2 MB *)
      readseq (2 * mb / 8192);
      check_bool
        (Printf.sprintf "read-ahead resumed after the backward seek (%d -> %d)"
           r1 st.Nfs.Client.ra_issued)
        true
        (st.Nfs.Client.ra_issued >= r1 + 8);
      (* wasted prefetch: a short sequential burst triggers cluster
         read-ahead, then the file is dropped before the pages are
         touched *)
      let g = Nfs.Client.create m "short" in
      let b = Bytes.create 65536 in
      for i = 0 to 2 do
        Nfs.Client.write g ~off:(i * 65536) ~buf:b ~len:65536
      done;
      Nfs.Client.fsync g;
      Nfs.Client.invalidate g;
      let w0 = st.Nfs.Client.ra_wasted in
      ignore (Nfs.Client.read g ~off:0 ~buf ~len:8192);
      ignore (Nfs.Client.read g ~off:8192 ~buf ~len:8192);
      (* let the biod's prefetch land before dropping the pages *)
      Sim.Engine.sleep (Clusterfs.Topology.engine t) 1_000_000;
      Nfs.Client.invalidate g;
      check_bool "unused prefetched pages counted as wasted" true
        (st.Nfs.Client.ra_wasted > w0))

(* ---------- the window table alone ---------- *)

module Rs = Ufs.Rstream

(* Feed [find]'s verdict on the access at [po] back into the table the
   way the UFS read path ([~ufs:true]: renew before note_miss) or the
   NFS client (a repointed window restarts its frontier) does. *)
let update ~ufs rs ~po = function
  | Some w -> Rs.touch rs w ~po
  | None ->
      if ufs then (
        if not (Rs.renew rs ~po) then ignore (Rs.note_miss rs ~po))
      else if not (Rs.note_miss rs ~po) then (Rs.mru rs).Rs.ra_off <- 0

(* The block and the offset [find] judges an access at [off] by: UFS
   asks per block, the NFS client per sub-block chunk. *)
let judge ~ufs ~off =
  let po = off - (off mod bsize) in
  (po, if ufs then po else off)

let access ~ufs rs ~off =
  let po, cur = judge ~ufs ~off in
  let found = Rs.find rs ~po ~cur in
  update ~ufs rs ~po found;
  found

let test_lone_reader_one_window () =
  List.iter
    (fun (ufs, chunk) ->
      let rs = Rs.create () in
      let first = Rs.mru rs in
      for i = 0 to 511 do
        ignore (access ~ufs rs ~off:(i * chunk));
        check_int "no miss" 0 rs.Rs.misses;
        check_int "one window" 1 (List.length rs.Rs.windows);
        check_bool "the initial window" true (Rs.mru rs == first)
      done)
    (* block reads and quarter-block reads, as either caller *)
    [ (true, bsize); (true, bsize / 4); (false, bsize); (false, bsize / 4) ]

let test_renew_and_sub_block_find () =
  let rs = Rs.create () in
  let w = Option.get (Rs.find rs ~po:0 ~cur:0) in
  Rs.touch rs w ~po:0;
  let hits = w.Rs.hits and clock = rs.Rs.clock in
  check_int "window advanced past block 0" bsize w.Rs.nextr;
  check_bool "block-aligned re-access predicts nothing" true
    (Rs.find rs ~po:0 ~cur:0 = None);
  check_bool "renew finds the advanced window" true (Rs.renew rs ~po:0);
  check_int "renew leaves hits" hits w.Rs.hits;
  check_int "renew leaves the clock" clock rs.Rs.clock;
  check_int "renew counts no miss" 0 rs.Rs.misses;
  check_bool "nothing sits past block 5" false (Rs.renew rs ~po:(5 * bsize));
  (match Rs.find rs ~po:0 ~cur:(bsize / 2) with
  | Some w' ->
      check_bool "mid-block find matches the advanced window" true (w' == w)
  | None -> Alcotest.fail "mid-block access missed the advanced window");
  check_bool "block 1 is predicted" true
    (Rs.find rs ~po:bsize ~cur:bsize <> None)

(* Random offsets mixed with up to 10 interleaved sequential runs, each
   reading whole blocks or quarter blocks from its own region. *)
let prop_table_bounded =
  Helpers.qtest ~count:200 "window table: at most 8 windows, find matches"
    QCheck.(
      triple (int_range 0 10)
        (list_of_size (Gen.int_range 1 400) (pair small_nat small_nat))
        bool)
    (fun (runs, ops, ufs) ->
      let rs = Rs.create () in
      let pos = Array.init runs (fun i -> i * 512 * bsize) in
      List.for_all
        (fun (a, b) ->
          let off =
            if runs > 0 && a mod 3 <> 0 then begin
              let i = b mod runs in
              let off = pos.(i) in
              pos.(i) <- off + (if i mod 2 = 0 then bsize else bsize / 4);
              off
            end
            else ((b * 7919) mod 8192 * bsize) + (a mod 4 * (bsize / 4))
          in
          let po, cur = judge ~ufs ~off in
          let predicts w =
            w.Rs.nextr = po || (cur > po && w.Rs.nextr = po + bsize)
          in
          let found = Rs.find rs ~po ~cur in
          let found_ok =
            match found with
            | None -> not (List.exists predicts rs.Rs.windows)
            | Some w ->
                predicts w
                && List.memq w rs.Rs.windows
                && List.for_all
                     (fun v ->
                       v == w || (not (predicts v)) || v.Rs.hits < w.Rs.hits
                       || (v.Rs.hits = w.Rs.hits && v.Rs.stamp < w.Rs.stamp))
                     rs.Rs.windows
          in
          update ~ufs rs ~po found;
          let n = List.length rs.Rs.windows in
          found_ok && n >= 1 && n <= Rs.max_windows)
        ops)

let suites =
  [
    ( "streams",
      [
        Alcotest.test_case "figure 10/11 goldens unchanged" `Slow
          test_fig10_golden;
        Alcotest.test_case "interleaved pair ~2x single, local" `Slow
          test_interleaved_local;
        Alcotest.test_case "interleaved pair ~2x single, remote" `Slow
          test_interleaved_remote;
        Alcotest.test_case "write gathering holds at 8 clients" `Slow
          test_write_gather_8_clients;
        Alcotest.test_case "client read-ahead survives backward seek" `Slow
          test_backward_seek;
        Alcotest.test_case "lone sequential reader keeps one window" `Quick
          test_lone_reader_one_window;
        Alcotest.test_case "renew and sub-block find" `Quick
          test_renew_and_sub_block_find;
        prop_table_bounded;
      ] );
  ]
