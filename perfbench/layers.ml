(* Per-layer metrics: measured-phase deltas of the Sim.Metrics
   registry, the engine's counters and the GC, taken at the boundary
   between set-up and the measured phase so that mkfs and prewrite
   traffic never counts as workload traffic. *)

(* A registry snapshot, flattened to (layer, instance, field) -> value.
   Int and Float metrics keep their name; a Summary becomes
   [name.count] and [name.total] (which difference cleanly) plus
   [name.p50] and [name.p99], which do not: a summary's percentiles
   cover the whole run, set-up included. *)
type snap = (string * string * string, float) Hashtbl.t

let take reg : snap =
  let h = Hashtbl.create 4096 in
  List.iter
    (fun (layer, instance, metrics) ->
      List.iter
        (fun (name, v) ->
          let put field x = Hashtbl.replace h (layer, instance, field) x in
          match v with
          | Sim.Metrics.Int n -> put name (float_of_int n)
          | Sim.Metrics.Float f -> put name f
          | Sim.Metrics.Summary s ->
              put (name ^ ".count") (float_of_int (Sim.Stats.Summary.count s));
              put (name ^ ".total") (Sim.Stats.Summary.total s);
              put (name ^ ".p50") (Sim.Stats.Summary.percentile_of s 50.);
              put (name ^ ".p99") (Sim.Stats.Summary.percentile_of s 99.)
          | Sim.Metrics.Hist _ -> ())
        metrics)
    (Sim.Metrics.snapshot reg);
  h

type engine_counts = {
  events : int;
  processes : int;
  cancellations : int;
  suspends : int;
  effects : int;  (* suspend + attrib + span + fls *)
}

let engine_counts e =
  {
    events = Sim.Engine.events_dispatched e;
    processes = Sim.Engine.processes_spawned e;
    cancellations = Sim.Engine.cancellations e;
    suspends = Sim.Engine.effect_suspends e;
    effects =
      Sim.Engine.effect_suspends e + Sim.Engine.effect_attrib_ops e
      + Sim.Engine.effect_span_ops e + Sim.Engine.effect_fls_ops e;
  }

let engine_delta a b =
  {
    events = b.events - a.events;
    processes = b.processes - a.processes;
    cancellations = b.cancellations - a.cancellations;
    suspends = b.suspends - a.suspends;
    effects = b.effects - a.effects;
  }

(* Everything one traced repetition measured, for the table below. *)
type ctx = {
  before : snap;
  after : snap;
  ops : int;
  sim_us : int;  (* measured-phase simulated wall time *)
  host_s : float;  (* measured-phase host time *)
  engine : engine_counts;  (* measured-phase deltas *)
  heap_max : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  heap_mb_per_machine : float;
  create_s : float;
  prepare_s : float;
  cost_pct : (string * float) list;  (* pooled cost table, percent *)
  meta_ms : float;  (* mean simulated namespace-op time *)
  write_kb : float;  (* file data the workload's writes carried *)
  replay_s : float;
  trace_overhead : float;
}

let fold (s : snap) ?(inst = fun _ -> true) ~layer ~field ~init f =
  Hashtbl.fold
    (fun (l, i, fld) v acc ->
      if l = layer && inst i && field fld then f acc i v else acc)
    s init

let sum s ?inst ~layer ~field () =
  fold s ?inst ~layer ~field ~init:0. (fun acc _ v -> acc +. v)

(* Sum over the instances of [layer] that [inst] accepts of the
   measured-phase change of the fields [field] accepts. *)
let delta_where c ?inst ~layer ~field () =
  sum c.after ?inst ~layer ~field () -. sum c.before ?inst ~layer ~field ()

let delta ?inst c layer name =
  delta_where c ?inst ~layer ~field:(String.equal name) ()

(* The worst instance's end-of-run value. *)
let worst c layer name =
  fold c.after ~layer ~field:(String.equal name) ~init:0. (fun acc _ v ->
      Float.max acc v)

let ratio a b = if b = 0. then 0. else a /. b
let per_op c x = ratio x (float_of_int c.ops)

let cost c phases =
  List.fold_left
    (fun acc (p, pct) -> if List.exists (fun f -> f p) phases then acc +. pct else acc)
    0. c.cost_pct

let prefix p s = String.starts_with ~prefix:p s

let rpc_calls f =
  String.starts_with ~prefix:"rpc_" f && String.ends_with ~suffix:"_calls" f

(* Measured-phase mean of a summary: change in total over change in
   count. *)
let mean c layer name =
  ratio (delta c layer (name ^ ".total")) (delta c layer (name ^ ".count"))

type metric = {
  name : string;
  unit_ : string;
  moves : string;  (* the end-to-end metric it should move, and where *)
  value : ctx -> float;
}

let m name unit_ moves value = { name; unit_; moves; value }

let disk_ios c = delta c "disk" "reads" +. delta c "disk" "writes"

(* The switch and its ports export some of the same counters; the
   switch instance holds the fabric-wide totals. *)
let switch i = String.ends_with ~suffix:".switch" i

let port_util c =
  (* busiest direction of the busiest port over the measured phase *)
  let busy dir =
    fold c.after ~layer:"net" ~field:(String.equal dir) ~init:[] (fun acc i v ->
        let v0 =
          Option.value ~default:0. (Hashtbl.find_opt c.before ("net", i, dir))
        in
        (v -. v0) :: acc)
  in
  List.fold_left Float.max 0. (busy "up_busy_us" @ busy "down_busy_us")
  /. Float.max 1. (float_of_int c.sim_us)

let all =
  let stream = "sim_kbps on local-stream" in
  let fleet_host = "host_ops_per_s on nfs-fleet" in
  let fleet_lat = "sim_lat_p999_ms on nfs-fleet" in
  [
    m "sim.events_per_op" "events" fleet_host (fun c ->
        per_op c (float_of_int c.engine.events));
    m "sim.host_ns_per_event" "ns" fleet_host (fun c ->
        ratio (c.host_s *. 1e9) (float_of_int c.engine.events));
    m "sim.effects_per_op" "effects" fleet_host (fun c ->
        per_op c (float_of_int c.engine.effects));
    m "sim.heap_max" "events" fleet_host (fun c -> float_of_int c.heap_max);
    m "sim.processes" "count" fleet_host (fun c ->
        float_of_int c.engine.processes);
    m "sim.cancellations" "count" fleet_host (fun c ->
        float_of_int c.engine.cancellations);
    m "sim.engine_replay_s" "s" fleet_host (fun c -> c.replay_s);
    m "sim.engine_share" "frac" fleet_host (fun c -> ratio c.replay_s c.host_s);
    m "gc.minor_words_per_op" "words" "peak_heap_mb, host_ops_per_s on nfs-fleet"
      (fun c -> per_op c c.minor_words);
    m "gc.promoted_words_per_op" "words"
      "peak_heap_mb, host_ops_per_s on nfs-fleet" (fun c ->
        per_op c c.promoted_words);
    m "gc.major_collections" "count" "host_ops_per_s on nfs-fleet" (fun c ->
        float_of_int c.major_collections);
    m "core.heap_mb_per_machine" "MB" "peak_heap_mb on nfs-fleet" (fun c ->
        c.heap_mb_per_machine);
    m "core.create_s" "s" "setup_s on all, most on nfs-fleet" (fun c -> c.create_s);
    m "fio.prepare_s" "s" "setup_s on all, most on nfs-fleet" (fun c ->
        c.prepare_s);
    m "fio.cache_pct" "%" "setup_s on all (client.cache cost row)" (fun c ->
        cost c [ String.equal "client.cache" ]);
    m "ufs.getpage_hit_ratio" "frac" stream (fun c ->
        ratio (delta c "ufs" "getpage_hits") (delta c "ufs" "getpage_calls"));
    m "ufs.ra_useful_ratio" "frac" stream (fun c ->
        ratio (delta c "ufs" "ra_used_blocks") (delta c "ufs" "ra_blocks"));
    m "ufs.blocks_per_read_io" "blocks" stream (fun c ->
        ratio
          (delta c "ufs" "pgin_blocks" +. delta c "ufs" "ra_blocks")
          (delta c "ufs" "pgin_ios" +. delta c "ufs" "ra_ios"));
    m "ufs.blocks_per_push_io" "blocks" stream (fun c ->
        ratio (delta c "ufs" "push_blocks") (delta c "ufs" "push_ios"));
    m "ufs.bmap_calls_per_op" "calls" "sim_kbps on local-stream, local-random"
      (fun c -> per_op c (delta c "ufs" "bmap_calls"));
    m "ufs.pgin_wait_ms" "ms" "sim_lat_p999_ms on local-stream" (fun c ->
        mean c "ufs" "pgin_wait_us" /. 1000.);
    m "ufs.wlimit_sleeps" "count" stream (fun c -> delta c "ufs" "wlimit_sleeps");
    m "ufs.freebehind_pages" "pages" stream (fun c ->
        delta c "ufs" "freebehind_pages");
    m "ufs.meta_op_ms" "ms" "sim_lat_p999_ms on local-random" (fun c -> c.meta_ms);
    m "jrnl.commits" "count" "sim_lat_p999_ms on local-random" (fun c ->
        delta c "jrnl" "commits");
    m "jrnl.records_per_commit" "records" "sim_lat_p999_ms on local-random"
      (fun c -> ratio (delta c "jrnl" "commit_records") (delta c "jrnl" "commits"));
    m "jrnl.log_bytes_per_op" "B" "sim_lat_p999_ms on local-random" (fun c ->
        per_op c (delta c "jrnl" "log_bytes"));
    m "wal.stall_commits" "count" "sim_lat_p999_ms on local-random" (fun c ->
        delta c "wal" "stall_commits");
    m "wal.ckpt_waits" "count" "sim_lat_p999_ms on local-random" (fun c ->
        delta c "wal" "ckpt_waits");
    m "vm.hit_ratio" "frac" "sim_kbps on local-stream, local-random" (fun c ->
        ratio (delta c "vm.pool" "hits") (delta c "vm.pool" "lookups"));
    m "vm.alloc_waits" "count" "sim_kbps on local-stream, local-random" (fun c ->
        delta c "vm.pool" "alloc_waits");
    m "vm.prefetch_wasted_pages" "pages" "sim_kbps on local-stream, local-random"
      (fun c -> delta c "vm.pool" "prefetch_wasted_pages");
    m "vm.pageout_scans" "count" "sim_kbps on local-stream, local-random"
      (fun c -> delta c "vm.pageout" "scans");
    m "vm.pageout_flushed" "pages" "sim_kbps on local-stream, local-random"
      (fun c -> delta c "vm.pageout" "flushed");
    m "disk.ios_per_op" "ios" stream (fun c -> per_op c (disk_ios c));
    m "disk.kb_per_io" "KB" stream (fun c ->
        ratio
          ((delta c "disk" "sectors_read" +. delta c "disk" "sectors_written")
          *. 512. /. 1024.)
          (disk_ios c));
    m "disk.busy_frac" "frac" stream (fun c ->
        let disks =
          fold c.after ~layer:"disk" ~field:(String.equal "busy_us") ~init:0.
            (fun acc _ _ -> acc +. 1.)
        in
        ratio (delta c "disk" "busy_us")
          (Float.max 1. disks *. float_of_int c.sim_us));
    m "disk.queue_wait_p50_ms" "ms" "sim_lat_p999_ms on local-random" (fun c ->
        worst c "disk" "queue_wait_us.p50" /. 1000.);
    m "disk.queue_wait_p99_ms" "ms" "sim_lat_p999_ms on local-random" (fun c ->
        worst c "disk" "queue_wait_us.p99" /. 1000.);
    m "disk.seek_ms_per_io" "ms" stream (fun c ->
        ratio (delta c "disk" "seek_us") (disk_ios c) /. 1000.);
    m "disk.rot_ms_per_io" "ms" stream (fun c ->
        ratio (delta c "disk" "rot_wait_us") (disk_ios c) /. 1000.);
    m "disk.blocked_pct" "%" "sim_kbps on local-stream, sim_lat_p999_ms on local-random"
      (fun c -> cost c [ prefix "disk." ]);
    m "nfs.rpc_calls_per_op" "calls" fleet_lat (fun c ->
        per_op c (delta_where c ~layer:"nfs" ~field:rpc_calls ()));
    m "nfs.retransmit_ratio" "frac" fleet_lat (fun c ->
        ratio
          (delta c "nfs" "rpc_retransmits")
          (delta_where c ~layer:"nfs" ~field:rpc_calls ()));
    m "nfs.rpc_rtt_p99_ms" "ms" fleet_lat (fun c ->
        Float.max
          (worst c "nfs" "rpc_read_rtt_us.p99")
          (worst c "nfs" "rpc_write_rtt_us.p99")
        /. 1000.);
    m "nfs.window_wait_ms" "ms" fleet_lat (fun c ->
        per_op c (delta c "nfs" "rpc_window_wait_us.total") /. 1000.);
    m "nfs.nfsd_queue_p99_ms" "ms" fleet_lat (fun c ->
        worst c "nfs" "queue_wait_us.p99" /. 1000.);
    m "nfs.dup_cache_hits" "count" fleet_lat (fun c ->
        delta c "nfs" "dup_cache_hits");
    m "nfs.ra_useful_ratio" "frac" "sim_kbps on nfs-fleet" (fun c ->
        let used = delta c "nfs" "ra_used" in
        ratio used (used +. delta c "nfs" "ra_wasted"));
    m "nfs.gather_kb_per_write" "KB" "sim_kbps on nfs-fleet" (fun c ->
        (* file data per completed WRITE RPC; the clients' gather-size
           histogram does not difference *)
        ratio c.write_kb (delta c "nfs" "rpc_write_calls"));
    m "nfs.blocked_pct" "%" "sim_lat_p999_ms, sim_kbps on nfs-fleet" (fun c ->
        cost c [ prefix "rpc."; prefix "nfsd"; prefix "client.throttle" ]);
    m "net.frames_per_op" "frames" fleet_lat (fun c ->
        per_op c (delta ~inst:switch c "net" "frames_sent"));
    m "net.loss_drops" "frames" fleet_lat (fun c -> delta ~inst:switch c "net" "drops");
    m "net.overflow_drops" "frames" fleet_lat (fun c ->
        delta ~inst:switch c "net" "overflow_drops");
    m "net.max_port_util" "frac" fleet_lat port_util;
    m "net.queue_wait_ms" "ms" fleet_lat (fun c ->
        ratio
          (delta ~inst:switch c "net" "queue_wait_us.total")
          (delta ~inst:switch c "net" "queue_wait_us.count")
        /. 1000.);
    m "net.wire_pct" "%" fleet_lat (fun c -> cost c [ prefix "wire" ]);
    m "bench.trace_overhead" "frac" "host_ops_per_s on every workload" (fun c ->
        c.trace_overhead);
  ]
