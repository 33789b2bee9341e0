(* The simulated network and the NFS-style file service: link modelling,
   RPC retry, the duplicate-request cache, client-side clustering (biod
   read-ahead, write gathering, the dirty cap), and the loss-tolerance
   properties the subsystem exists to demonstrate. *)

module T = Clusterfs.Topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bsize = Ufs.Layout.bsize

let topo ?(clients = 1) ?servers ?net ?seed ?topology ?transport ?nfsd ?biods
    ?ra_depth ?dirty_limit ?rpc_timeout ?ports_buffer ?name () =
  T.create ?net ?seed ?topology ?transport ?nfsd ?biods ?ra_depth ?dirty_limit
    ?rpc_timeout ?servers ?ports_buffer ~clients
    (Helpers.config ?name ())

let client_link_stats c =
  match T.client_link c with
  | Some l -> Net.stats l
  | None -> Alcotest.fail "client has no private link"

(* Server-side ground truth: the file's bytes as the UFS has them. *)
let server_contents t name =
  T.run t (fun t ->
      let fs = t.T.server.Clusterfs.Machine.fs in
      match Ufs.Fs.namei fs ("/" ^ name) with
      | exception Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> None
      | ip ->
          let size = ip.Ufs.Types.size in
          let buf = Bytes.create size in
          let n = Ufs.Fs.read fs ip ~off:0 ~buf ~len:size in
          Ufs.Iops.iput fs ip;
          Some (Bytes.sub buf 0 n))

(* ---------- net layer ---------- *)

let test_medium_contention_and_delivery () =
  let engine = Sim.Engine.create () in
  let mk () = Sim.Cpu.create engine in
  let m =
    Net.Medium.create engine
      { Net.default_config with Net.bandwidth = 100_000 }
  in
  let s0 = Net.Medium.attach m ~cpu:(mk ()) in
  let s1 = Net.Medium.attach m ~cpu:(mk ()) in
  let s2 = Net.Medium.attach m ~cpu:(mk ()) in
  check_int "ids follow attach order" 2 (Net.Medium.station_id s2);
  (* stations 1 and 2 blast at station 0 concurrently: the wire is one
     serial resource, so somebody must sense it busy and back off *)
  let blast st lo =
    Sim.Engine.spawn engine (fun () ->
        let ep = Net.Medium.endpoint st ~peer:0 in
        for i = lo to lo + 4 do
          Net.send ep ~size:10_000 i
        done)
  in
  blast s1 100;
  blast s2 200;
  let got1 = ref [] and got2 = ref [] in
  let drain ~peer acc =
    Sim.Engine.spawn engine (fun () ->
        let ep = Net.Medium.endpoint s0 ~peer in
        for _ = 1 to 5 do
          acc := Net.recv ep :: !acc
        done)
  in
  drain ~peer:1 got1;
  drain ~peer:2 got2;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "per-source FIFO (station 1)"
    [ 100; 101; 102; 103; 104 ] (List.rev !got1);
  Alcotest.(check (list int)) "per-source FIFO (station 2)"
    [ 200; 201; 202; 203; 204 ] (List.rev !got2);
  let st = Net.Medium.stats m in
  check_int "all frames delivered" 10 st.Net.Medium.frames_delivered;
  check_int "nothing dropped on a clean wire" 0 st.Net.Medium.m_drops;
  check_bool "contention observed" true (st.Net.Medium.contentions > 0);
  check_bool "wire utilization accounted" true (Net.Medium.utilization m > 0.)

let test_medium_is_seeded () =
  (* same seed, same traffic -> identical backoff history; different
     seed -> (almost surely) a different contention pattern *)
  let run seed =
    let engine = Sim.Engine.create () in
    let m =
      Net.Medium.create ~seed engine
        { Net.default_config with Net.bandwidth = 50_000 }
    in
    let s0 = Net.Medium.attach m ~cpu:(Sim.Cpu.create engine) in
    let senders =
      Array.init 3 (fun _ -> Net.Medium.attach m ~cpu:(Sim.Cpu.create engine))
    in
    Array.iteri
      (fun k st ->
        Sim.Engine.spawn engine (fun () ->
            let ep = Net.Medium.endpoint st ~peer:0 in
            for i = 1 to 8 do
              Net.send ep ~size:5_000 ((k * 100) + i)
            done))
      senders;
    Array.iteri
      (fun k _ ->
        Sim.Engine.spawn engine (fun () ->
            let ep = Net.Medium.endpoint s0 ~peer:(k + 1) in
            for _ = 1 to 8 do
              ignore (Net.recv ep)
            done))
      senders;
    Sim.Engine.run engine;
    ((Net.Medium.stats m).Net.Medium.contentions, Sim.Engine.now engine)
  in
  check_bool "seed 3 reproducible" true (run 3 = run 3);
  check_bool "seeds diverge" true (run 3 <> run 4)

(* ---------- switched fabric ---------- *)

let test_switch_fifo_and_forwarding () =
  let engine = Sim.Engine.create () in
  let mk () = Sim.Cpu.create engine in
  let sw =
    Net.Switch.create engine
      { Net.default_config with Net.bandwidth = 100_000 }
  in
  let p0 = Net.Switch.attach sw ~cpu:(mk ()) in
  let p1 = Net.Switch.attach sw ~cpu:(mk ()) in
  let p2 = Net.Switch.attach sw ~cpu:(mk ()) in
  check_int "ids follow attach order" 2 (Net.Switch.port_id p2);
  (* ports 1 and 2 blast at port 0 concurrently: their uplinks are
     private (no CSMA), but port 0's downlink is one serial resource
     the switch queues for *)
  let blast p lo =
    Sim.Engine.spawn engine (fun () ->
        let ep = Net.Switch.endpoint p ~peer:0 in
        for i = lo to lo + 4 do
          Net.send ep ~size:10_000 i
        done)
  in
  blast p1 100;
  blast p2 200;
  let got1 = ref [] and got2 = ref [] in
  let drain ~peer acc =
    Sim.Engine.spawn engine (fun () ->
        let ep = Net.Switch.endpoint p0 ~peer in
        for _ = 1 to 5 do
          acc := Net.recv ep :: !acc
        done)
  in
  drain ~peer:1 got1;
  drain ~peer:2 got2;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "per-source FIFO (port 1)"
    [ 100; 101; 102; 103; 104 ] (List.rev !got1);
  Alcotest.(check (list int)) "per-source FIFO (port 2)"
    [ 200; 201; 202; 203; 204 ] (List.rev !got2);
  let st = Net.Switch.stats sw in
  check_int "all frames delivered" 10 st.Net.Switch.frames_delivered;
  check_int "nothing dropped within the buffer" 0 st.Net.Switch.sw_drops;
  check_bool "store-and-forward queueing observed" true
    (st.Net.Switch.occ_hwm >= 1);
  check_bool "port utilization accounted" true
    (Net.Switch.max_port_utilization sw > 0.)

let test_switch_overflow_is_tail_drop () =
  (* an output buffer of 1 frame with two blasting sources: the port
     must tail-drop, and what does get through stays per-source FIFO *)
  let engine = Sim.Engine.create () in
  let mk () = Sim.Cpu.create engine in
  let sw =
    Net.Switch.create ~buffer:1 engine
      { Net.default_config with Net.bandwidth = 20_000 }
  in
  let p0 = Net.Switch.attach sw ~cpu:(mk ()) in
  let senders = [| Net.Switch.attach sw ~cpu:(mk ()); Net.Switch.attach sw ~cpu:(mk ()) |] in
  Array.iteri
    (fun k p ->
      Sim.Engine.spawn engine (fun () ->
          let ep = Net.Switch.endpoint p ~peer:0 in
          (* different sizes desynchronize the two uplinks, so the
             tail-drop alternates instead of starving one source *)
          for i = 1 to 8 do
            Net.send ep ~size:(10_000 - (k * 3_000)) ((k * 100) + i)
          done))
    senders;
  let got = Array.map (fun _ -> ref []) senders in
  Array.iteri
    (fun k _ ->
      Sim.Engine.spawn engine (fun () ->
          let ep = Net.Switch.endpoint p0 ~peer:(k + 1) in
          (* drain forever; the engine stops when senders are done and
             no more frames are in flight — drop the blocked reader *)
          while true do
            let v = Net.recv ep in
            got.(k) := v :: !(got.(k))
          done))
    senders;
  (try Sim.Engine.run engine with Sim.Engine.Deadlock _ -> ());
  let st = Net.Switch.stats sw in
  check_bool "overflow drops happened" true (st.Net.Switch.overflows > 0);
  check_int "no seeded loss on a clean config" 0 st.Net.Switch.sw_drops;
  check_int "delivered + dropped = sent" st.Net.Switch.frames_sent
    (st.Net.Switch.frames_delivered + st.Net.Switch.overflows);
  check_int "high-water pinned at the buffer" 1 st.Net.Switch.occ_hwm;
  check_int "every delivered frame reached a reader"
    st.Net.Switch.frames_delivered
    (List.length !(got.(0)) + List.length !(got.(1)));
  (* per-source order of the survivors *)
  List.iter
    (fun k ->
      let s = List.rev !(got.(k)) in
      check_bool
        (Printf.sprintf "survivors of source %d stay in order" k)
        true
        (List.sort compare s = s && s <> []))
    [ 0; 1 ]

let test_switch_is_seeded () =
  (* same seed, same traffic -> identical loss pattern and timing;
     different seed -> (almost surely) different *)
  let run seed =
    let engine = Sim.Engine.create () in
    let sw =
      Net.Switch.create ~seed engine
        (Net.lossy { Net.default_config with Net.bandwidth = 50_000 } 0.2)
    in
    let p0 = Net.Switch.attach sw ~cpu:(Sim.Cpu.create engine) in
    let senders =
      Array.init 3 (fun _ -> Net.Switch.attach sw ~cpu:(Sim.Cpu.create engine))
    in
    Array.iteri
      (fun k p ->
        Sim.Engine.spawn engine (fun () ->
            let ep = Net.Switch.endpoint p ~peer:0 in
            for i = 1 to 8 do
              Net.send ep ~size:5_000 ((k * 100) + i)
            done))
      senders;
    Array.iteri
      (fun k _ ->
        Sim.Engine.spawn engine (fun () ->
            let ep = Net.Switch.endpoint p0 ~peer:(k + 1) in
            while true do
              ignore (Net.recv ep)
            done))
      senders;
    (try Sim.Engine.run engine with Sim.Engine.Deadlock _ -> ());
    let st = Net.Switch.stats sw in
    (st.Net.Switch.sw_drops, st.Net.Switch.frames_delivered, Sim.Engine.now engine)
  in
  let d, _, _ = run 3 in
  check_bool "losses actually drawn" true (d > 0);
  check_bool "seed 3 reproducible" true (run 3 = run 3);
  check_bool "seeds diverge" true (run 3 <> run 4)

let test_net_fifo_and_timing () =
  let engine = Sim.Engine.create () in
  let cpu_a = Sim.Cpu.create engine in
  let cpu_b = Sim.Cpu.create engine in
  let link = Net.create engine Net.default_config ~a_cpu:cpu_a ~b_cpu:cpu_b in
  let got = ref [] in
  Sim.Engine.spawn engine (fun () ->
      for i = 1 to 5 do
        Net.send (Net.a_end link) ~size:(i * 1000) i
      done);
  Sim.Engine.spawn engine (fun () ->
      for _ = 1 to 5 do
        got := Net.recv (Net.b_end link) :: !got
      done);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "FIFO delivery" [ 1; 2; 3; 4; 5 ] (List.rev !got);
  let st = Net.stats link in
  check_int "all sent" 5 st.Net.msgs_sent;
  check_int "all delivered" 5 st.Net.msgs_delivered;
  check_int "no drops on a clean link" 0 st.Net.drops;
  check_bool "sender CPU charged" true (Sim.Cpu.sys_time cpu_a > 0)

let test_net_loss_is_seeded () =
  let run seed =
    let engine = Sim.Engine.create () in
    let cpu = Sim.Cpu.create engine in
    let link =
      Net.create ~seed engine
        (Net.lossy Net.default_config 0.3)
        ~a_cpu:cpu ~b_cpu:cpu
    in
    Sim.Engine.spawn engine (fun () ->
        for i = 1 to 100 do
          Net.send (Net.a_end link) ~size:100 i
        done);
    Sim.Engine.run engine;
    (Net.stats link).Net.drops
  in
  check_int "same seed, same drops" (run 7) (run 7);
  check_bool "drops happen at 30%" true (run 7 > 5);
  check_bool "different seed, different stream" true (run 7 <> run 8)

(* ---------- basic file service ---------- *)

let test_roundtrip () =
  let t = topo () in
  let len = 100_000 in
  let buf = Bytes.init len (fun i -> Helpers.pattern_byte ~seed:1 i) in
  T.run_clients t (fun c ->
      let f = Nfs.Client.create c.T.mount "hello" in
      Nfs.Client.write f ~off:0 ~buf ~len;
      Nfs.Client.fsync f;
      (* read back through the cache *)
      let rbuf = Bytes.create len in
      check_int "cached read length" len
        (Nfs.Client.read f ~off:0 ~buf:rbuf ~len);
      check_bool "cached content" true (Bytes.equal buf rbuf);
      (* and cold, forcing READ RPCs *)
      Nfs.Client.invalidate f;
      let rbuf = Bytes.create len in
      check_int "cold read length" len
        (Nfs.Client.read f ~off:0 ~buf:rbuf ~len);
      check_bool "cold content" true (Bytes.equal buf rbuf);
      check_int "size view" len (Nfs.Client.size f));
  match server_contents t "hello" with
  | Some got ->
      check_int "server size" len (Bytes.length got);
      check_bool "bytes live in the server's UFS" true (Bytes.equal buf got)
  | None -> Alcotest.fail "file missing on server"

let test_lookup_readdir () =
  let t = topo () in
  T.run_clients t (fun c ->
      let m = c.T.mount in
      ignore (Nfs.Client.create m "a");
      ignore (Nfs.Client.create m "b");
      check_bool "lookup hit" true (Nfs.Client.lookup m "a" <> None);
      check_bool "lookup miss" true (Nfs.Client.lookup m "nope" = None);
      let names = Nfs.Client.readdir m in
      check_bool "readdir lists both" true
        (List.mem "a" names && List.mem "b" names))

let test_readdir_pages () =
  let t = topo () in
  T.run_clients t (fun c ->
      let m = c.T.mount in
      for i = 0 to 79 do
        ignore (Nfs.Client.create m (Printf.sprintf "pg%02d" i))
      done;
      let names = Nfs.Client.readdir m in
      let mine =
        List.filter
          (fun n -> String.length n = 4 && String.sub n 0 2 = "pg")
          names
      in
      check_int "every entry listed across pages" 80 (List.length mine);
      check_int "no entry repeated at page seams" 80
        (List.length (List.sort_uniq compare mine));
      let calls = Nfs.Rpc.op_calls c.T.rpc "readdir" in
      check_bool
        (Printf.sprintf "listing was paged (%d READDIR calls)" calls)
        true (calls >= 3))

let test_create_truncates () =
  let t = topo () in
  T.run_clients t (fun c ->
      let m = c.T.mount in
      let f = Nfs.Client.create m "trunc" in
      let buf = Bytes.make (4 * bsize) 'x' in
      Nfs.Client.write f ~off:0 ~buf ~len:(4 * bsize);
      Nfs.Client.fsync f;
      let f2 = Nfs.Client.create m "trunc" in
      check_int "creat truncated" 0 (Nfs.Client.size f2));
  match server_contents t "trunc" with
  | Some got -> check_int "empty on server too" 0 (Bytes.length got)
  | None -> Alcotest.fail "file missing on server"

(* ---------- client-side clustering ---------- *)

let stream_config ~file_mb path =
  { Workload.Iobench.default_config with Workload.Iobench.file_mb; path }

let test_readahead_clusters () =
  let t = topo () in
  let cfg = stream_config ~file_mb:2 "/seq" in
  T.run_clients t (fun c ->
      Workload.Iobench.prepare (Workload.Handle.Remote c.T.mount) cfg;
      let r =
        Workload.Iobench.run_phase (Workload.Handle.Remote c.T.mount) cfg
          Workload.Iobench.FSR
      in
      check_int "all bytes" (2 * 1024 * 1024) r.Workload.Iobench.bytes_moved;
      let st = Nfs.Client.stats c.T.mount in
      check_bool "read-ahead issued" true (st.Nfs.Client.ra_issued > 0);
      check_bool "read-ahead consumed" true (st.Nfs.Client.ra_used > 0);
      (* 2 MB in 120 KB clusters is ~18 READs; per-block would be 256 *)
      let reads = Nfs.Rpc.op_calls c.T.rpc "read" in
      check_bool
        (Printf.sprintf "cluster-sized READs (%d RPCs)" reads)
        true (reads < 64))

let test_random_reads_fetch_single_blocks () =
  let t = topo () in
  let cfg =
    { (stream_config ~file_mb:2 "/rand") with Workload.Iobench.random_ops = 64 }
  in
  T.run_clients t (fun c ->
      Workload.Iobench.prepare (Workload.Handle.Remote c.T.mount) cfg;
      let base = (client_link_stats c).Net.bytes_sent in
      let _ =
        Workload.Iobench.run_phase (Workload.Handle.Remote c.T.mount) cfg
          Workload.Iobench.FRR
      in
      let st = Nfs.Client.stats c.T.mount in
      (* random misses must not drag whole clusters over the wire *)
      check_int "no read-ahead on random" 0 st.Nfs.Client.ra_issued;
      let sent = (client_link_stats c).Net.bytes_sent - base in
      (* 64 single-block reads ~ 550 KB with framing; 64 clusters would
         be ~7.7 MB on the wire *)
      check_bool
        (Printf.sprintf "single-block fetches (%d bytes on wire)" sent)
        true
        (sent < 1024 * 1024))

let test_write_gathering () =
  let t = topo () in
  let cfg = stream_config ~file_mb:2 "/gather" in
  T.run_clients t (fun c ->
      let r =
        Workload.Iobench.run_phase (Workload.Handle.Remote c.T.mount) cfg
          Workload.Iobench.FSW
      in
      check_int "all bytes" (2 * 1024 * 1024) r.Workload.Iobench.bytes_moved;
      let writes = Nfs.Rpc.op_calls c.T.rpc "write" in
      let st = Nfs.Client.stats c.T.mount in
      check_int "every push was a gather" writes st.Nfs.Client.write_gathers;
      (* 2 MB in 120 KB gathers is 18 WRITEs; per-block would be 256 *)
      check_bool
        (Printf.sprintf "gathered WRITEs (%d RPCs)" writes)
        true (writes < 64));
  match server_contents t "gather" with
  | Some got -> check_int "server got it all" (2 * 1024 * 1024) (Bytes.length got)
  | None -> Alcotest.fail "file missing on server"

let test_dirty_cap_blocks_writer () =
  (* dirty limit of one cluster: the writer must block on the cap and
     the data must still all arrive *)
  let t = topo ~dirty_limit:(120 * 1024) () in
  let len = 1024 * 1024 in
  T.run_clients t (fun c ->
      let f = Nfs.Client.create c.T.mount "capped" in
      let buf = Bytes.make bsize 'c' in
      for i = 0 to (len / bsize) - 1 do
        Nfs.Client.write f ~off:(i * bsize) ~buf ~len:bsize
      done;
      Nfs.Client.fsync f;
      let st = Nfs.Client.stats c.T.mount in
      check_bool "writer slept on the cap" true (st.Nfs.Client.dirty_sleeps > 0));
  match server_contents t "capped" with
  | Some got -> check_int "nothing lost under the cap" len (Bytes.length got)
  | None -> Alcotest.fail "file missing on server"

let test_unaligned_stream_dirty_accounting () =
  (* Regression: a flush of a run ending mid-block used to credit back
     only the truncated payload length against the bsize-per-page debit,
     leaking dirty_bytes on every such flush until the cap loop slept
     with nothing in flight — a deadlock on any long unaligned stream. *)
  let t = topo ~dirty_limit:(120 * 1024) () in
  let len = 4 * 1024 * 1024 in
  let chunk = 1000 in
  T.run_clients t (fun c ->
      let f = Nfs.Client.create c.T.mount "unaligned" in
      let off = ref 0 in
      while !off < len do
        let n = min chunk (len - !off) in
        let buf =
          Bytes.init n (fun i -> Helpers.pattern_byte ~seed:7 (!off + i))
        in
        Nfs.Client.write f ~off:!off ~buf ~len:n;
        off := !off + n
      done;
      Nfs.Client.fsync f);
  match server_contents t "unaligned" with
  | None -> Alcotest.fail "file missing on server"
  | Some got ->
      check_int "size" len (Bytes.length got);
      let ok = ref true in
      Bytes.iteri
        (fun i b -> if b <> Helpers.pattern_byte ~seed:7 i then ok := false)
        got;
      check_bool "contents match" true !ok

let test_partial_block_rmw () =
  let t = topo () in
  let len = 3 * bsize in
  T.run_clients t (fun c ->
      let f = Nfs.Client.create c.T.mount "rmw" in
      let base = Bytes.init len (fun i -> Helpers.pattern_byte ~seed:3 i) in
      Nfs.Client.write f ~off:0 ~buf:base ~len;
      Nfs.Client.fsync f;
      Nfs.Client.invalidate f;
      (* overwrite 100 bytes in the middle of block 1 *)
      let patch = Bytes.make 100 'P' in
      Nfs.Client.write f ~off:(bsize + 50) ~buf:patch ~len:100;
      Nfs.Client.fsync f);
  match server_contents t "rmw" with
  | None -> Alcotest.fail "file missing on server"
  | Some got ->
      check_int "size unchanged" len (Bytes.length got);
      let ok = ref true in
      for i = 0 to len - 1 do
        let expect =
          if i >= bsize + 50 && i < bsize + 150 then 'P'
          else Helpers.pattern_byte ~seed:3 i
        in
        if Bytes.get got i <> expect then ok := false
      done;
      check_bool "patch applied, surroundings intact" true !ok

(* ---------- loss, retry, duplicate suppression ---------- *)

let test_lossy_link_completes_and_applies_once () =
  let t = topo ~net:(Net.lossy Net.default_config 0.15) ~seed:11 () in
  let len = 512 * 1024 in
  T.run_clients t (fun c ->
      let f = Nfs.Client.create c.T.mount "lossy" in
      let buf = Bytes.init len (fun i -> Helpers.pattern_byte ~seed:5 i) in
      Nfs.Client.write f ~off:0 ~buf ~len;
      Nfs.Client.fsync f;
      Nfs.Client.invalidate f;
      let rbuf = Bytes.create len in
      check_int "read completes despite loss" len
        (Nfs.Client.read f ~off:0 ~buf:rbuf ~len);
      check_bool "content survives retransmission" true (Bytes.equal buf rbuf);
      let st = Nfs.Rpc.stats c.T.rpc in
      check_bool "loss actually forced retries" true
        (st.Nfs.Rpc.retransmits > 0);
      check_int "every CREATE applied exactly once"
        (Nfs.Rpc.op_calls c.T.rpc "create")
        (Nfs.Server.applied t.T.service "create");
      check_int "every WRITE applied exactly once"
        (Nfs.Rpc.op_calls c.T.rpc "write")
        (Nfs.Server.applied t.T.service "write"))

(* The property the subsystem exists for: for any loss rate < 1 and any
   op mix, every RPC completes, CREATE/WRITE apply once, and the
   resulting file contents equal a zero-loss run's. *)

type op =
  | Create of int
  | Write of int * int * int  (* file, block, blocks *)
  | Read of int * int
  | Stat of int

let gen_ops seed =
  let rng = Sim.Rng.create ~seed in
  let nops = 6 + Sim.Rng.int rng 10 in
  List.init nops (fun _ ->
      let file = Sim.Rng.int rng 2 in
      match Sim.Rng.int rng 5 with
      | 0 -> Create file
      | 1 | 2 -> Write (file, Sim.Rng.int rng 24, 1 + Sim.Rng.int rng 6)
      | 3 -> Read (file, Sim.Rng.int rng 24)
      | _ -> Stat file)

let apply_ops mount ops =
  let files = Array.make 2 None in
  let get i =
    match files.(i) with
    | Some f -> f
    | None ->
        let f = Nfs.Client.create mount (Printf.sprintf "f%d" i) in
        files.(i) <- Some f;
        f
  in
  List.iteri
    (fun k op ->
      match op with
      | Create i -> files.(i) <- Some (Nfs.Client.create mount (Printf.sprintf "f%d" i))
      | Write (i, blk, nblks) ->
          let len = nblks * bsize in
          let buf = Bytes.init len (fun j -> Helpers.pattern_byte ~seed:k j) in
          Nfs.Client.write (get i) ~off:(blk * bsize) ~buf ~len
      | Read (i, blk) ->
          let buf = Bytes.create bsize in
          ignore (Nfs.Client.read (get i) ~off:(blk * bsize) ~buf ~len:bsize)
      | Stat i -> ignore (Nfs.Client.getattr (get i)))
    ops;
  Array.iter (function Some f -> Nfs.Client.fsync f | None -> ()) files

let run_mix ?topology ?transport ~loss ~seed () =
  let t =
    topo ~net:(Net.lossy Net.default_config loss) ~seed ?topology ?transport ()
  in
  let ops = gen_ops seed in
  T.run_clients t (fun c -> apply_ops c.T.mount ops);
  let c = t.T.clients.(0) in
  let applied_once =
    Nfs.Server.applied t.T.service "create" = Nfs.Rpc.op_calls c.T.rpc "create"
    && Nfs.Server.applied t.T.service "write" = Nfs.Rpc.op_calls c.T.rpc "write"
  in
  let contents = List.map (fun n -> server_contents t n) [ "f0"; "f1" ] in
  (applied_once, contents)

(* The bytes [apply_ops] must leave on the server: every file the mix
   touches exists, CREATE truncates, WRITEs land in order. *)
let model_contents ops =
  let files = Array.make 2 None in
  let get i = Option.value files.(i) ~default:Bytes.empty in
  List.iteri
    (fun k op ->
      match op with
      | Create i -> files.(i) <- Some Bytes.empty
      | Write (i, blk, nblks) ->
          let old = get i and off = blk * bsize and len = nblks * bsize in
          let b = Bytes.make (max (Bytes.length old) (off + len)) '\000' in
          Bytes.blit old 0 b 0 (Bytes.length old);
          for j = 0 to len - 1 do
            Bytes.set b (off + j) (Helpers.pattern_byte ~seed:k j)
          done;
          files.(i) <- Some b
      | Read (i, _) | Stat i -> files.(i) <- Some (get i))
    ops;
  Array.to_list files

(* Regression: seed 182 at zero loss writes block 16 of f0 while a
   read-ahead fill of it is in flight; the fill then drops the page as
   lying past the server's EOF.  The writer used to dirty that detached
   page, and the next gather hit its [assert false] (the write would
   otherwise have been lost).  Only block 16 is compared: blocks 12 and
   17 of this same run still land out of order through the separate
   overlapping-WRITE ordering defect, so the whole-file comparison
   against [model_contents] waits for that fix. *)
let test_write_after_dropped_placeholder () =
  let ok, contents = run_mix ~loss:0. ~seed:182 () in
  check_bool "CREATE/WRITE applied once" true ok;
  let block = function
    | Some b :: _ when Bytes.length b >= 17 * bsize -> Bytes.sub b (16 * bsize) bsize
    | _ -> Alcotest.fail "f0 shorter than 17 blocks"
  in
  check_bool "the write into the dropped placeholder reached the server" true
    (block contents = block (model_contents (gen_ops 182)))

let prop_lossy_equals_lossless =
  Helpers.qtest ~count:12 "any op mix, any loss < 1: completes, applies once"
    QCheck.(pair (int_bound 10_000) (int_bound 89))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100. in
      let ok_lossy, lossy = run_mix ~loss ~seed () in
      let ok_zero, zero = run_mix ~loss:0. ~seed () in
      ok_lossy && ok_zero && lossy = zero)

let prop_shared_medium_equals_p2p =
  Helpers.qtest ~count:8
    "shared medium, adaptive transport: any op mix matches p2p zero-loss"
    QCheck.(pair (int_bound 10_000) (int_bound 49))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100. in
      let ok_shared, shared =
        run_mix ~topology:T.Shared_medium ~transport:Nfs.Rpc.Adaptive ~loss
          ~seed ()
      in
      let ok_zero, zero = run_mix ~loss:0. ~seed () in
      ok_shared && ok_zero && shared = zero)

let prop_switched_equals_p2p =
  Helpers.qtest ~count:8
    "switched fabric, adaptive transport: any op mix matches p2p zero-loss"
    QCheck.(pair (int_bound 10_000) (int_bound 49))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100. in
      let ok_sw, sw =
        run_mix ~topology:T.Switched ~transport:Nfs.Rpc.Adaptive ~loss ~seed ()
      in
      let ok_zero, zero = run_mix ~loss:0. ~seed () in
      ok_sw && ok_zero && sw = zero)

(* ---------- multi-client ---------- *)

let test_clients_are_isolated () =
  let t = topo ~clients:3 () in
  let len = 64 * 1024 in
  T.run_clients t (fun c ->
      let name = Printf.sprintf "own%d" c.T.id in
      let f = Nfs.Client.create c.T.mount name in
      let buf = Bytes.init len (fun i -> Helpers.pattern_byte ~seed:c.T.id i) in
      Nfs.Client.write f ~off:0 ~buf ~len;
      Nfs.Client.fsync f);
  for id = 0 to 2 do
    match server_contents t (Printf.sprintf "own%d" id) with
    | None -> Alcotest.fail "client file missing"
    | Some got ->
        check_int "size" len (Bytes.length got);
        let ok = ref true in
        for i = 0 to len - 1 do
          if Bytes.get got i <> Helpers.pattern_byte ~seed:id i then ok := false
        done;
        check_bool (Printf.sprintf "client %d's bytes" id) true !ok
  done

(* ---------- fleet: sharding, per-server congestion state ---------- *)

let test_sharding_spreads_and_agrees () =
  let t = topo ~clients:2 ~servers:3 () in
  let paths = List.init 32 (Printf.sprintf "/shard%d") in
  let owners = List.map (T.server_of_path t) paths in
  List.iter
    (fun o -> check_bool "owner in range" true (o >= 0 && o < 3))
    owners;
  (* the hash must actually spread the namespace *)
  List.iter
    (fun srv ->
      check_bool
        (Printf.sprintf "server %d owns something" srv)
        true
        (List.mem srv owners))
    [ 0; 1; 2 ];
  (* every client agrees, and shard picks the owner's mount *)
  List.iter
    (fun path ->
      let o = T.server_of_path t path in
      Array.iter
        (fun c ->
          check_bool "shard routes to the owner" true
            (T.shard t c path == (T.mount_of c ~server:o)))
        t.T.clients)
    paths;
  (* one server: everything is server 0 *)
  let t1 = topo () in
  List.iter
    (fun p -> check_int "single server owns all" 0 (T.server_of_path t1 p))
    paths

(* an empty side of the wire is a configuration error, reported before
   any machine is built *)
let test_topology_rejects_empty () =
  Alcotest.check_raises "no clients"
    (Invalid_argument "Topology.create: clients must be >= 1") (fun () ->
      ignore (T.create ~clients:0 Clusterfs.Config.config_a));
  Alcotest.check_raises "no servers"
    (Invalid_argument "Topology.create: servers must be >= 1") (fun () ->
      ignore (T.create ~servers:0 ~clients:1 Clusterfs.Config.config_a))

let test_fleet_write_read_across_servers () =
  let t = topo ~clients:2 ~servers:2 ~topology:T.Switched
      ~transport:Nfs.Rpc.Adaptive () in
  let len = 48 * 1024 in
  T.run_clients t (fun c ->
      (* each client writes files that hash to both servers *)
      for k = 0 to 3 do
        let path = Printf.sprintf "/f%d.%d" c.T.id k in
        let mount = T.shard t c path in
        let f = Nfs.Client.create mount (Filename.basename path) in
        let buf =
          Bytes.init len (fun i -> Helpers.pattern_byte ~seed:(c.T.id + k) i)
        in
        Nfs.Client.write f ~off:0 ~buf ~len;
        Nfs.Client.fsync f;
        Nfs.Client.invalidate f;
        let rbuf = Bytes.create len in
        check_int "read back" len (Nfs.Client.read f ~off:0 ~buf:rbuf ~len);
        check_bool "bytes survive the fabric" true (Bytes.equal buf rbuf)
      done);
  (* both servers actually served something *)
  Array.iteri
    (fun j svc ->
      check_bool
        (Printf.sprintf "server %d saw traffic" j)
        true
        ((Nfs.Server.stats svc).Nfs.Server.received > 0))
    t.T.services

let test_per_server_congestion_state () =
  let t = topo ~clients:1 ~servers:2 ~transport:Nfs.Rpc.Adaptive () in
  let c = t.T.clients.(0) in
  (* mounts to different servers: independent estimators *)
  check_bool "different servers, different cstate" false
    (Nfs.Rpc.shares_cstate c.T.mounts.(0).T.m_rpc c.T.mounts.(1).T.m_rpc);
  (* a second mount to server 0 shares the first's *)
  let extra = T.add_mount t c ~server:0 () in
  check_bool "same server, shared cstate" true
    (Nfs.Rpc.shares_cstate extra.T.m_rpc c.T.mounts.(0).T.m_rpc);
  check_bool "the extra mount is its own channel" true
    (extra.T.m_rpc != c.T.mounts.(0).T.m_rpc);
  (* traffic through both mounts feeds one window *)
  let len = 32 * 1024 in
  T.run t (fun _ ->
      let f1 = Nfs.Client.create c.T.mount "viaA" in
      let f2 = Nfs.Client.create extra.T.m_mount "viaB" in
      let buf = Bytes.init len (fun i -> Helpers.pattern_byte ~seed:9 i) in
      Nfs.Client.write f1 ~off:0 ~buf ~len;
      Nfs.Client.write f2 ~off:0 ~buf ~len;
      Nfs.Client.fsync f1;
      Nfs.Client.fsync f2);
  check_bool "both channels made calls" true
    ((Nfs.Rpc.stats extra.T.m_rpc).Nfs.Rpc.calls > 0
    && (Nfs.Rpc.stats c.T.rpc).Nfs.Rpc.calls > 0);
  check_bool "shared window evolved off 2.0" true
    (Nfs.Rpc.cwnd c.T.rpc > 2.);
  let eps = 1e-9 in
  check_bool "both mounts read the same cwnd" true
    (Float.abs (Nfs.Rpc.cwnd extra.T.m_rpc -. Nfs.Rpc.cwnd c.T.rpc) < eps);
  check_bool "both mounts read the same srtt" true
    (Float.abs (Nfs.Rpc.srtt_us extra.T.m_rpc -. Nfs.Rpc.srtt_us c.T.rpc) < eps);
  (* both files landed on server 0's UFS *)
  check_bool "file via mount A on server" true (server_contents t "viaA" <> None);
  check_bool "file via mount B on server" true (server_contents t "viaB" <> None)

let test_switch_overflow_recovery_under_adaptive () =
  (* a 1-frame output buffer in front of the server: concurrent client
     bursts overflow it, drops look like loss, and the adaptive
     transport must retransmit its way through without corruption *)
  let t = topo ~clients:4 ~topology:T.Switched ~transport:Nfs.Rpc.Adaptive
      ~ports_buffer:1 ~rpc_timeout:(Sim.Time.ms 400) () in
  let len = 64 * 1024 in
  T.run_clients t (fun c ->
      let name = Printf.sprintf "ov%d" c.T.id in
      let f = Nfs.Client.create c.T.mount name in
      let buf = Bytes.init len (fun i -> Helpers.pattern_byte ~seed:c.T.id i) in
      Nfs.Client.write f ~off:0 ~buf ~len;
      Nfs.Client.fsync f;
      Nfs.Client.invalidate f;
      let rbuf = Bytes.create len in
      check_int "read completes despite drops" len
        (Nfs.Client.read f ~off:0 ~buf:rbuf ~len);
      check_bool "contents survive buffer overflow" true
        (Bytes.equal buf rbuf));
  let sw = match T.switch t with Some sw -> sw | None -> Alcotest.fail "no switch" in
  let st = Net.Switch.stats sw in
  check_bool "the buffer actually overflowed" true
    (st.Net.Switch.overflows > 0);
  let retrans =
    Array.fold_left
      (fun acc c -> acc + (Nfs.Rpc.stats c.T.rpc).Nfs.Rpc.retransmits)
      0 t.T.clients
  in
  check_bool "drops forced retransmits" true (retrans > 0);
  (* exactly-once still holds across the drops *)
  let issued op =
    Array.fold_left
      (fun acc c -> acc + Nfs.Rpc.op_calls c.T.rpc op)
      0 t.T.clients
  in
  check_int "every WRITE applied exactly once" (issued "write")
    (Nfs.Server.applied t.T.service "write");
  check_int "every CREATE applied exactly once" (issued "create")
    (Nfs.Server.applied t.T.service "create")

(* ---------- determinism ---------- *)

let golden_scale_run () =
  let reg = Sim.Metrics.create () in
  let row =
    Clusterfs.Machine.with_metrics_sink reg (fun () ->
        Clusterfs.Experiments.nfs_scaling ~file_mb:1 ~clients:4 ())
  in
  let layers =
    List.sort_uniq compare
      (List.map (fun (l, _, _) -> l) (Sim.Metrics.snapshot reg))
  in
  (row, layers, Sim.Metrics.to_json reg, Sim.Metrics.to_csv reg)

let test_golden_nfsscale_determinism () =
  let row1, layers, json1, csv1 = golden_scale_run () in
  let row2, _, json2, csv2 = golden_scale_run () in
  check_bool "scale row identical" true (row1 = row2);
  Alcotest.(check string) "metrics JSON byte-identical" json1 json2;
  Alcotest.(check string) "metrics CSV byte-identical" csv1 csv2;
  check_bool "net and nfs sources present" true
    (List.mem "net" layers && List.mem "nfs" layers)

let golden_cc_run () =
  let reg = Sim.Metrics.create () in
  let row =
    Clusterfs.Machine.with_metrics_sink reg (fun () ->
        Clusterfs.Experiments.nfs_congestion_point ~file_mb:1
          ~net:(Net.lossy Clusterfs.Experiments.nfs_scale_net 0.02)
          ~clients:2 ~transport:Nfs.Rpc.Adaptive ~topology:T.Shared_medium ())
  in
  (row, Sim.Metrics.to_json reg, Sim.Metrics.to_csv reg)

let test_golden_adaptive_determinism () =
  let row1, json1, csv1 = golden_cc_run () in
  let row2, json2, csv2 = golden_cc_run () in
  check_bool "congestion row identical" true (row1 = row2);
  Alcotest.(check string) "metrics JSON byte-identical" json1 json2;
  Alcotest.(check string) "metrics CSV byte-identical" csv1 csv2;
  check_bool "seeded loss actually forced retransmits" true
    (row1.Clusterfs.Experiments.cc_retransmits > 0)

let golden_fleet_run () =
  let reg = Sim.Metrics.create () in
  let row =
    Clusterfs.Machine.with_metrics_sink reg (fun () ->
        Clusterfs.Experiments.nfs_fleet ~file_mb:1 ~servers:2 ~clients:16 ())
  in
  (row, Sim.Metrics.to_json reg, Sim.Metrics.to_csv reg)

let test_golden_fleet_determinism () =
  let row1, json1, csv1 = golden_fleet_run () in
  let row2, json2, csv2 = golden_fleet_run () in
  check_bool "fleet row identical" true (row1 = row2);
  Alcotest.(check string) "metrics JSON byte-identical" json1 json2;
  Alcotest.(check string) "metrics CSV byte-identical" csv1 csv2;
  check_bool "all sixteen streams moved data" true
    (row1.Clusterfs.Experiments.fl_aggregate_kb_per_sec > 0.);
  check_bool "a bottleneck was named" true
    (row1.Clusterfs.Experiments.fl_bottleneck <> "")

(* ---------- congestion regression ---------- *)

let cc_point transport =
  Clusterfs.Experiments.nfs_congestion_point ~file_mb:1 ~clients:16 ~transport
    ~topology:T.Point_to_point ()

let test_adaptive_beats_fixed_at_16 () =
  let fixed = cc_point Nfs.Rpc.Fixed in
  let adaptive = cc_point Nfs.Rpc.Adaptive in
  let open Clusterfs.Experiments in
  check_bool
    (Printf.sprintf "adaptive %.0f KB/s at least 2x fixed %.0f KB/s"
       adaptive.cc_goodput_kb_per_sec fixed.cc_goodput_kb_per_sec)
    true (adaptive.cc_goodput_kb_per_sec >= 2. *. fixed.cc_goodput_kb_per_sec);
  check_bool "fixed transport collapses into a retransmit storm" true
    (fixed.cc_retransmits > 100);
  check_bool
    (Printf.sprintf "adaptive steady-state retransmits ~0 (got %d)"
       adaptive.cc_steady_retransmits)
    true (adaptive.cc_steady_retransmits <= 4);
  check_int "no dup-cache evictions (adaptive)" 0 adaptive.cc_dup_evictions;
  check_int "no dup-cache evictions (fixed)" 0 fixed.cc_dup_evictions

let suites =
  [
    ( "net",
      [
        Alcotest.test_case "FIFO delivery and timing" `Quick
          test_net_fifo_and_timing;
        Alcotest.test_case "seeded loss" `Quick test_net_loss_is_seeded;
        Alcotest.test_case "shared medium: contention and per-source FIFO"
          `Quick test_medium_contention_and_delivery;
        Alcotest.test_case "shared medium backoff is seeded" `Quick
          test_medium_is_seeded;
        Alcotest.test_case "switch: forwarding and per-port FIFO" `Quick
          test_switch_fifo_and_forwarding;
        Alcotest.test_case "switch: finite buffers tail-drop" `Quick
          test_switch_overflow_is_tail_drop;
        Alcotest.test_case "switch: drops are seeded" `Quick
          test_switch_is_seeded;
      ] );
    ( "nfs",
      [
        Alcotest.test_case "write/read roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "lookup and readdir" `Quick test_lookup_readdir;
        Alcotest.test_case "readdir pages large directories" `Quick
          test_readdir_pages;
        Alcotest.test_case "create truncates" `Quick test_create_truncates;
        Alcotest.test_case "biod read-ahead clusters" `Quick
          test_readahead_clusters;
        Alcotest.test_case "random reads stay single-block" `Quick
          test_random_reads_fetch_single_blocks;
        Alcotest.test_case "write gathering" `Quick test_write_gathering;
        Alcotest.test_case "dirty cap throttles the writer" `Quick
          test_dirty_cap_blocks_writer;
        Alcotest.test_case "unaligned stream: dirty accounting stays exact"
          `Quick test_unaligned_stream_dirty_accounting;
        Alcotest.test_case "partial-block read-modify-write" `Quick
          test_partial_block_rmw;
        Alcotest.test_case "lossy link: completes, applies once" `Quick
          test_lossy_link_completes_and_applies_once;
        prop_lossy_equals_lossless;
        prop_shared_medium_equals_p2p;
        prop_switched_equals_p2p;
        Alcotest.test_case "sharding spreads and all clients agree" `Quick
          test_sharding_spreads_and_agrees;
        Alcotest.test_case "2 servers: write/read through the fabric" `Quick
          test_fleet_write_read_across_servers;
        Alcotest.test_case "congestion state is per-server, not per-mount"
          `Quick test_per_server_congestion_state;
        Alcotest.test_case "switch overflow: adaptive recovers, applies once"
          `Quick test_switch_overflow_recovery_under_adaptive;
        Alcotest.test_case "three clients, isolated files" `Quick
          test_clients_are_isolated;
        Alcotest.test_case "4-client nfsscale golden determinism" `Slow
          test_golden_nfsscale_determinism;
        Alcotest.test_case "adaptive-RTO golden determinism under loss" `Slow
          test_golden_adaptive_determinism;
        Alcotest.test_case "16x2 fleet golden determinism" `Slow
          test_golden_fleet_determinism;
        Alcotest.test_case "16 clients: adaptive beats fixed transport" `Slow
          test_adaptive_beats_fixed_at_16;
        Alcotest.test_case "write after a dropped read-ahead placeholder"
          `Quick test_write_after_dropped_placeholder;
        Alcotest.test_case "topology rejects zero clients or servers" `Quick
          test_topology_rejects_empty;
      ] );
  ]
