(* The repository benchmark: drives the simulator from outside, through
   its public entry points, and prints the end-to-end metrics (untraced)
   or the per-layer metrics (traced run) of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every repetition builds its machines afresh.  A run first executes
   each of the workload's variants (inputs drawn from the seed) once,
   untimed, under the correctness gate: every read checked byte for
   byte, and for the first variant a read-back of every file and an
   fsck of every image.  That pass gives the simulated metrics.  Timed
   repetitions then cycle through the variants for [--seconds] of host
   time and give the host metrics.  Simulated time is deterministic, so
   each repetition must reproduce its variant's digest of simulated
   outputs exactly; one that does not counts as a failure.  The last
   line of standard output is one JSON object: correct, attempted,
   failed and the metrics. *)

open Clusterfs
module W = Workloads

let now = Unix.gettimeofday

(* ---------- one repetition ---------- *)

type rep = {
  speed : float;
      (* host speed relative to the reference host, from the calibration
         kernel timed before and after the repetition; 1 when untimed *)
  ops : int;
  failed : int;
  bytes : int;
  sim_us : int;  (* measured phase, simulated *)
  lat_us : int array;  (* every timed op, pooled *)
  digest : string;
  layers : Layers.ctx;  (* engine replay and tracing overhead left at 0 *)
  tracer : Spans.t option;
}

(* Verify a read against the pattern the file was written with. *)
let matches (s : Fio.Spec.t) ~job ~off buf ~len scratch =
  Fio.Stream.fill s ~job ~off scratch ~len;
  if len = Bytes.length buf && len = Bytes.length scratch then Bytes.equal buf scratch
  else Bytes.sub buf 0 len = Bytes.sub scratch 0 len

(* The file closures the runner sees: each op becomes a span, an op
   that raises or a read that comes back short before EOF is a failure,
   and on a checked repetition every byte read is verified. *)
let wrap_file ~checked ~fails (s : Fio.Spec.t) ~job (f : Fio.Target.file) =
  let _, pattern = W.job_file s ~job in
  let size = Fio.Spec.span s in
  let scratch = Bytes.create s.Fio.Spec.bs in
  let fail () = incr fails in
  {
    Fio.Target.read =
      (fun ~off ~buf ~len ->
        Spans.span "fio.read" (fun () ->
            match f.Fio.Target.read ~off ~buf ~len with
            | n ->
                if n <> max 0 (min len (size - off)) then fail ()
                else if checked && not (matches s ~job:pattern ~off buf ~len:n scratch)
                then fail ();
                n
            | exception _ ->
                fail ();
                0));
    write =
      (fun ~off ~buf ~len ->
        Spans.span "fio.write" (fun () ->
            try f.Fio.Target.write ~off ~buf ~len with _ -> fail ()));
    fsync =
      (fun () ->
        Spans.span "fio.fsync" (fun () ->
            try f.Fio.Target.fsync () with _ -> fail ()));
  }

(* local-random's namespace job: create a small file, write 1 KB to it
   and close it, and unlink it once 16 newer files exist.  Create,
   write and unlink are one timed op each. *)
let meta_job engine (m : Machine.t) ~files ~fails =
  let fs = m.Machine.fs in
  let buf = Bytes.make 1024 'm' in
  let lat = ref [] in
  let timed f =
    Spans.span "ufs.meta" (fun () ->
        let t0 = Sim.Engine.now engine in
        (try f () with _ -> incr fails);
        lat := (Sim.Engine.now engine - t0) :: !lat)
  in
  let live = Queue.create () in
  let unlink_oldest () = timed (fun () -> Ufs.Fs.unlink fs (Queue.pop live)) in
  for i = 0 to files - 1 do
    let path = Printf.sprintf "/meta/f%d" i in
    let ip = ref None in
    timed (fun () -> ip := Some (Ufs.Fs.creat fs path));
    (* write and close: the unlink below frees the file only once its
       last reference is gone *)
    timed (fun () ->
        let ip = Option.get !ip in
        Ufs.Fs.write fs ip ~off:0 ~buf ~len:(Bytes.length buf);
        Ufs.Iops.iput fs ip);
    Queue.push path live;
    if Queue.length live > 16 then unlink_oldest ()
  done;
  while not (Queue.is_empty live) do
    unlink_oldest ()
  done;
  Array.of_list (List.rev !lat)

(* Read every file back from the file system that holds it and compare
   with the fill pattern; then unmount and fsck every image.  Returns
   the number of failures. *)
let verify_images (st : W.setup) specs =
  let fails = ref 0 in
  st.W.drive (fun () ->
      List.iter
        (fun (s : Fio.Spec.t) ->
          let jobs = if s.Fio.Spec.share then 1 else s.Fio.Spec.numjobs in
          for job = 0 to jobs - 1 do
            let name, pattern = W.job_file s ~job in
            let m = W.image_of st ~job in
            let fs = m.Machine.fs in
            match Ufs.Fs.namei fs ("/" ^ name) with
            | exception _ -> incr fails
            | ip ->
                let size = Fio.Spec.span s in
                if (Ufs.Fs.stat fs ("/" ^ name)).Ufs.Fs.st_size <> size then
                  incr fails;
                let chunk = 64 * 1024 in
                let buf = Bytes.create chunk and scratch = Bytes.create chunk in
                let off = ref 0 in
                while !off < size do
                  let len = min chunk (size - !off) in
                  let n = Ufs.Fs.read fs ip ~off:!off ~buf ~len in
                  if n <> len || not (matches s ~job:pattern ~off:!off buf ~len scratch)
                  then incr fails;
                  off := !off + len
                done;
                Ufs.Iops.iput fs ip
          done)
        specs;
      List.iter (fun m -> Ufs.Fs.unmount m.Machine.fs) st.W.images);
  List.iter
    (fun m ->
      fails := !fails + List.length (Ufs.Fsck.check m.Machine.dev).Ufs.Fsck.problems)
    st.W.images;
  !fails

(* Every NFS CREATE and WRITE a client completed must have been applied
   exactly once by its server, however lossy the fabric. *)
let nfs_apply_failures (st : W.setup) =
  match st.W.topology with
  | None -> 0
  | Some topo ->
      let issued op =
        Array.fold_left
          (fun acc c ->
            Array.fold_left
              (fun acc mp -> acc + Nfs.Rpc.op_calls mp.Topology.m_rpc op)
              acc c.Topology.mounts)
          0 topo.Topology.clients
      in
      let applied op =
        Array.fold_left (fun acc svc -> acc + Nfs.Server.applied svc op) 0
          topo.Topology.services
      in
      abs (issued "create" - applied "create") + abs (issued "write" - applied "write")

(* A report whose cost rows do not sum to 100% is a failure. *)
let cost_failures reports =
  List.length
    (List.filter
       (fun r ->
         let rows = Fio.Report.cost_rows r in
         rows <> []
         && Float.abs (List.fold_left (fun a (_, _, p) -> a +. p) 0. rows -. 100.)
            > 1e-6)
       reports)

(* Cost rows pooled over reports: charged time over the summed
   attribution denominators. *)
let pooled_cost reports =
  let tbl = Hashtbl.create 16 in
  let denom = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun (j : Fio.Run.job_result) -> denom := !denom + j.Fio.Run.lat_total_us)
        r.Fio.Report.jobs;
      List.iter
        (fun (p, us, _) ->
          Hashtbl.replace tbl p (us + Option.value ~default:0 (Hashtbl.find_opt tbl p)))
        (Fio.Report.cost_rows r))
    reports;
  Hashtbl.fold
    (fun p us acc -> (p, 100. *. float_of_int us /. float_of_int (max 1 !denom)) :: acc)
    tbl []
  |> List.sort compare

let digest_of reports meta_lat ~sim_us ~events =
  let b = Buffer.create 65536 in
  let int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ' '
  in
  List.iter
    (fun r ->
      List.iter
        (fun (j : Fio.Run.job_result) ->
          List.iter int
            [ j.Fio.Run.job; j.read_ops; j.write_ops; j.bytes; j.wall_us; j.fsync_us ];
          Array.iter int j.lat_us;
          List.iter
            (fun (p, us) ->
              Buffer.add_string b p;
              int us)
            j.cost)
        r.Fio.Report.jobs)
    reports;
  Array.iter int meta_lat;
  int sim_us;
  int events;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Replay a phase's process, event, suspension and cancellation counts
   on a bare engine.  Each process sleeps its share of the suspensions
   (a sleep is two events: the timer and the resumption), schedules its
   share of the remaining plain callbacks, and arms and cancels a timer
   around its share of the sleeps, the way an RPC arms a retransmission
   timer and cancels it on the reply.  A cancelled timer still pops as a
   no-op, so events = processes + 2 sleeps + callbacks + cancellations. *)
let engine_replay (d : Layers.engine_counts) =
  let e = Sim.Engine.create () in
  let procs = max 1 d.Layers.processes in
  let cancels = d.Layers.cancellations in
  let sleeps = max 0 (min d.Layers.suspends ((d.Layers.events - procs - cancels) / 2)) in
  let callbacks = max 0 (d.Layers.events - procs - (2 * sleeps) - cancels) in
  let share total p = (total / procs) + if p < total mod procs then 1 else 0 in
  for p = 0 to procs - 1 do
    let n = share sleeps p and c = share cancels p and cb = ref (share callbacks p) in
    Sim.Engine.spawn e (fun () ->
        for i = 1 to n do
          let delay = 1 + (((i * 7919) + (p * 104729)) mod 997) in
          if !cb > 0 then begin
            Sim.Engine.schedule e ~delay ignore;
            decr cb
          end;
          if i <= c then begin
            let tm = Sim.Engine.schedule_cancellable e ~delay:(delay * 10) ignore in
            Sim.Engine.sleep e delay;
            Sim.Engine.cancel tm
          end
          else Sim.Engine.sleep e delay
        done;
        while !cb > 0 do
          Sim.Engine.schedule e ignore;
          decr cb
        done)
  done;
  let t0 = now () in
  Sim.Engine.run e;
  (now () -. t0, Sim.Engine.events_dispatched e)

(* [checked] verifies every byte read; [images] also reads every file
   back and fscks every image afterwards. *)
let run_rep (w : W.t) ~seed ~checked ~images ~traced =
  let plan = w.W.plan ~seed in
  let kernel_before = if checked then 0. else Calibrate.time () in
  (* start from a heap holding nothing of the previous repetition *)
  Gc.full_major ();
  let tracer = if traced then Some (Spans.create ()) else None in
  Spans.current := tracer;
  let fails = ref 0 in
  (* live heap per modeled machine: only a traced repetition pays for
     the two extra full collections *)
  let live_words () =
    if traced then begin
      Gc.full_major ();
      float_of_int (Gc.stat ()).Gc.live_words
    end
    else 0.
  in
  let live0 = live_words () in
  let t0 = now () in
  let st = Spans.phase "core.create" plan.W.create in
  Option.iter (fun t -> Spans.set_engine t st.W.engine) tracer;
  let t1 = now () in
  let files = ref [] in
  Spans.phase "fio.setup" (fun () ->
      st.W.drive (fun () ->
          files :=
            List.map
              (fun (s : Fio.Spec.t) ->
                Array.init s.Fio.Spec.numjobs (fun job ->
                    Spans.span "fio.prepare" (fun () ->
                        st.W.target.Fio.Target.prepare ~job s)))
              plan.W.specs;
          if plan.W.meta_files > 0 then
            Ufs.Fs.mkdir (List.hd st.W.images).Machine.fs "/meta"));
  let t2 = now () in
  let heap_mb_per_machine =
    (live_words () -. live0)
    *. float_of_int (Sys.word_size / 8)
    /. 1048576. /. float_of_int st.W.machines
  in
  (* the boundary: everything below is the measured phase, which starts
     with no collection work left over from set-up *)
  Gc.full_major ();
  let before = Layers.take st.W.registry in
  let eng0 = Layers.engine_counts st.W.engine in
  let gc0 = Gc.quick_stat () in
  let sim0 = Sim.Engine.now st.W.engine in
  let results = Array.make (List.length plan.W.specs) [] in
  let meta_lat = ref [||] in
  let sim_end = ref sim0 in
  let t3 = now () in
  Spans.phase "sim.run" (fun () ->
      st.W.drive (fun () ->
          let engine = st.W.engine in
          let pending = ref 0 in
          let join = Sim.Condition.create engine "bench" in
          let job f =
            incr pending;
            Sim.Engine.spawn engine (fun () ->
                f ();
                decr pending;
                Sim.Condition.broadcast join)
          in
          List.iteri
            (fun i (s, fs) ->
              let target =
                {
                  st.W.target with
                  Fio.Target.prepare =
                    (fun ~job _ -> wrap_file ~checked ~fails s ~job fs.(job));
                }
              in
              job (fun () -> results.(i) <- Fio.Run.execute target s))
            (List.combine plan.W.specs !files);
          if plan.W.meta_files > 0 then
            job (fun () ->
                meta_lat :=
                  meta_job engine (List.hd st.W.images) ~files:plan.W.meta_files
                    ~fails);
          while !pending > 0 do
            Sim.Condition.wait join
          done;
          sim_end := Sim.Engine.now engine));
  let t4 = now () in
  let speed =
    if checked then 1.
    else 2. *. Calibrate.reference_s /. (kernel_before +. Calibrate.time ())
  in
  let gc1 = Gc.quick_stat () in
  let eng = Layers.engine_delta eng0 (Layers.engine_counts st.W.engine) in
  let after = Layers.take st.W.registry in
  let reports =
    List.mapi
      (fun i s -> Fio.Report.make s ~target:st.W.target.Fio.Target.kind results.(i))
      plan.W.specs
  in
  let job_results = List.concat (Array.to_list results) in
  let ops =
    List.fold_left
      (fun acc (j : Fio.Run.job_result) -> acc + j.Fio.Run.read_ops + j.write_ops)
      (Array.length !meta_lat) job_results
  in
  let bytes =
    List.fold_left
      (fun acc (j : Fio.Run.job_result) -> acc + j.Fio.Run.bytes)
      (plan.W.meta_files * 1024) job_results
  in
  let lat_us =
    Array.concat (!meta_lat :: List.map (fun j -> j.Fio.Run.lat_us) job_results)
  in
  let sim_us = !sim_end - sim0 in
  let digest = digest_of reports !meta_lat ~sim_us ~events:eng.Layers.events in
  Spans.phase "bench.verify" (fun () ->
      fails := !fails + nfs_apply_failures st + cost_failures reports;
      if images then fails := !fails + verify_images st plan.W.specs);
  Spans.current := None;
  Option.iter Spans.detach tracer;
  let meta_ms =
    if !meta_lat = [||] then 0.
    else
      float_of_int (Array.fold_left ( + ) 0 !meta_lat)
      /. float_of_int (Array.length !meta_lat)
      /. 1000.
  in
  let cost_pct = pooled_cost reports in
  let write_kb =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (j : Fio.Run.job_result) ->
            acc +. float_of_int (j.Fio.Run.write_ops * r.Fio.Report.spec.Fio.Spec.bs) /. 1024.)
          acc r.Fio.Report.jobs)
      (float_of_int plan.W.meta_files) reports
  in
  let layers =
    {
      Layers.before;
      after;
      ops;
      sim_us;
      host_s = t4 -. t3;
      engine = eng;
      heap_max = Sim.Engine.heap_max_depth st.W.engine;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      heap_mb_per_machine;
      create_s = t1 -. t0;
      prepare_s = t2 -. t1;
      cost_pct;
      meta_ms;
      write_kb;
      replay_s = 0.;
      trace_overhead = 0.;
    }
  in
  {
    speed;
    ops;
    failed = !fails;
    bytes;
    sim_us;
    lat_us;
    digest;
    layers;
    tracer;
  }

(* ---------- statistics and output ---------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile_ms lat p =
  if lat = [||] then 0.
  else Sim.Stats.percentile (Array.map float_of_int lat) p /. 1000.

(* Host times as measured, and scaled to the reference host speed: the
   scaled ones are what the benchmark gates, the raw ones are printed
   beside them. *)
let raw_ops_per_s r = float_of_int r.ops /. r.layers.Layers.host_s
let raw_setup_s r = r.layers.Layers.create_s +. r.layers.Layers.prepare_s
let host_ops_per_s r = raw_ops_per_s r /. r.speed
let setup_s r = raw_setup_s r *. r.speed

(* Simulated end-to-end figures of a set of repetitions, pooled:
   identical whenever the same variants run, traced or not.  The first
   list is gated.  The second is printed only: on local-stream and
   nfs-fleet most ops are cache hits whose cost is a constant of the CPU
   model, so the median reads the same for every seed, and local-stream's
   99th percentile falls in a gap of its latency distribution, so it
   jumps by a tenth between seeds; the mean and the 99.9th percentile
   (still at least ten samples beyond it) do neither. *)
let sim_metrics reps =
  let bytes = List.fold_left (fun acc r -> acc + r.bytes) 0 reps in
  let sim_us = List.fold_left (fun acc r -> acc + r.sim_us) 0 reps in
  let lat = Array.concat (List.map (fun r -> r.lat_us) reps) in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 lat)
    /. float_of_int (max 1 (Array.length lat))
    /. 1000.
  in
  ( [
      ( "sim_kbps",
        float_of_int bytes /. 1024. /. Sim.Time.to_sec_float (max 1 sim_us),
        "KB/s" );
      ("sim_lat_mean_ms", mean, "ms");
      ("sim_lat_p999_ms", percentile_ms lat 99.9, "ms");
    ],
    [
      ("sim_lat_p50_ms", percentile_ms lat 50., "ms");
      ("sim_lat_p99_ms", percentile_ms lat 99., "ms");
    ],
    Array.length lat )

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit_) ->
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit_)
       ms)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w = match W.find !workload with Some w -> w | None -> usage () in
  if !trace <> 0 && !trace <> 1 then usage ();
  let traced = !trace = 1 in
  let start = now () in
  let k = w.W.variants in
  (* The first pass runs each variant once, untimed, under the full
     correctness gate; it alone gives the simulated figures.  Timed
     repetitions follow, cycling through the variants, until the time is
     up: at least three.  Every repetition must reproduce its variant's
     digest. *)
  let checked =
    List.init k (fun v ->
        run_rep w ~seed:(W.variant_seed ~seed:!seed v) ~checked:true ~images:(v = 0)
          ~traced:false)
  in
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.
  in
  let digests = Array.of_list (List.map (fun r -> r.digest) checked) in
  let reps = ref [] in
  let i = ref 0 in
  let timed_start = now () in
  while (!i < 3 || now () -. timed_start < !seconds) && now () -. start < 150. do
    (* a traced run takes each variant twice in a row, traced then
       untraced, so the tracing overhead compares like with like *)
    let v = (if traced then !i / 2 else !i) mod k in
    let rep =
      run_rep w ~seed:(W.variant_seed ~seed:!seed v) ~checked:false ~images:false
        ~traced:(traced && !i mod 2 = 0)
    in
    reps := (v, rep) :: !reps;
    incr i
  done;
  let reps = List.rev !reps in
  let mismatched =
    List.filter_map (fun (v, r) -> if r.digest <> digests.(v) then Some r else None) reps
  in
  let digest_failures = List.length mismatched in
  let reps = List.map snd reps in
  let attempted = List.fold_left (fun acc r -> acc + r.ops) 0 (checked @ reps) in
  let failed =
    List.fold_left (fun acc r -> acc + r.failed) digest_failures (checked @ reps)
  in
  let sims, sims_printed, samples = sim_metrics checked in
  Printf.printf
    "workload %s  seed %d  %s run  (%d variants checked, then %d timed repetitions)\n"
    w.W.name !seed
    (if traced then "traced" else "untraced")
    k (List.length reps);
  Printf.printf "  why: %s\n" w.W.why;
  let line name v unit_ note = Printf.printf "  %-26s %14.6g %-6s %s\n" name v unit_ note in
  let e2e =
    sims
    @ [
        ("host_ops_per_s", median (List.map host_ops_per_s reps), "1/s");
        ("setup_s", median (List.map setup_s reps), "s");
        ("peak_heap_mb", peak_heap_mb, "MB");
      ]
  in
  let per_layer =
    if not traced then []
    else begin
      let traced_reps = List.filter (fun r -> r.tracer <> None) reps in
      let untraced_reps = List.filter (fun r -> r.tracer = None) reps in
      let first = List.hd traced_reps in
      let tracer = Option.get first.tracer in
      (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
      let path =
        Filename.concat ".bench_out" (Printf.sprintf "trace-%s-seed%d.json" w.W.name !seed)
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Spans.to_chrome tracer));
      let med f = median (List.map f traced_reps) in
      let replay = List.map (fun r -> engine_replay r.layers.Layers.engine) traced_reps in
      let ctx =
        {
          first.layers with
          Layers.replay_s = median (List.map fst replay);
          trace_overhead =
            1. -. (med host_ops_per_s /. median (List.map host_ops_per_s untraced_reps));
          host_s = med (fun r -> r.layers.Layers.host_s);
          create_s = med (fun r -> r.layers.Layers.create_s);
          prepare_s = med (fun r -> r.layers.Layers.prepare_s);
        }
      in
      Printf.printf "  chrome trace: %s (%d spans: %d fio ops, %d ufs.meta ops)\n" path
        (List.length (Spans.spans tracer))
        (Spans.count tracer "fio.read" + Spans.count tracer "fio.write")
        (Spans.count tracer "ufs.meta");
      Printf.printf
        "  traced simulated outputs equal untraced ones: %d of %d traced repetitions\n"
        (List.length (List.filter (fun r -> not (List.memq r mismatched)) traced_reps))
        (List.length traced_reps);
      Printf.printf "  tracing overhead on host_ops_per_s: %.1f%%\n" (100. *. ctx.Layers.trace_overhead);
      Printf.printf "  engine replay: %d events for the workload's %d\n"
        (snd (List.hd replay)) ctx.Layers.engine.Layers.events;
      List.map
        (fun (m : Layers.metric) -> (m.Layers.name, m.value ctx, m.unit_, m.moves))
        Layers.all
    end
  in
  print_endline "  end-to-end:";
  List.iter
    (fun (name, v, unit_) ->
      let note =
        match name with
        | "sim_lat_mean_ms" | "sim_lat_p999_ms" ->
            Printf.sprintf "(%d ops pooled)" samples
        | "host_ops_per_s" ->
            Printf.sprintf "(median of %d repetitions at reference host speed; raw %.6g)"
              (List.length reps)
              (median (List.map raw_ops_per_s reps))
        | "setup_s" ->
            Printf.sprintf "(median of %d repetitions at reference host speed; raw %.6g)"
              (List.length reps)
              (median (List.map raw_setup_s reps))
        | _ -> ""
      in
      line name v unit_ note)
    e2e;
  List.iter
    (fun (name, v, unit_) ->
      line name v unit_ (Printf.sprintf "(%d ops pooled; not gated)" samples))
    sims_printed;
  line "host_speed"
    (median (List.map (fun r -> r.speed) reps))
    "x" "(calibration kernel, reference host = 1; not gated)";
  line "failed_op_frac"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "frac"
    (Printf.sprintf "(%d failed of %d attempted)" failed attempted);
  if traced then begin
    print_endline "  per-layer (measured-phase deltas; moves -> end-to-end metric on workload):";
    List.iter
      (fun (name, v, unit_, moves) -> line name v unit_ ("-> " ^ moves))
      per_layer
  end;
  let metrics =
    if traced then List.map (fun (n, v, u, _) -> (n, v, u)) per_layer else e2e
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (json_metrics metrics);
  exit (if failed = 0 then 0 else 1)
