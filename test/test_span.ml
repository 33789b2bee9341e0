(* The tracing subsystem: span trees are well-formed over arbitrary
   seeded remote runs (nesting, unique ids, the client RPC span
   bracketing the server subtree), tracing never perturbs simulated
   results, the slow-op sampler is deterministic, the engine's
   self-observability counters count, and the Chrome export has the
   shape viewers expect. *)

module Span = Sim.Span
module J = Sim.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let spec_of s =
  match Fio.Spec.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec %S did not parse: %s" s e

(* Run a remote fio workload under a fresh recorder; return the
   recorder and the job report JSON. *)
let traced_remote ?(clients = 1) ?recorder spec =
  let r = match recorder with Some r -> r | None -> Span.create_recorder () in
  let report =
    Span.with_recorder r (fun () ->
        let t = Clusterfs.Topology.create ~clients (Helpers.config ()) in
        let jobs =
          Clusterfs.Topology.run t (fun t ->
              Fio.Run.execute (Fio.Target.remote t) spec)
        in
        Fio.Report.to_json (Fio.Report.make spec ~target:"remote" jobs))
  in
  (r, report)

let all_spans r =
  let acc = ref [] in
  List.iter (Span.iter (fun s -> acc := s :: !acc)) (Span.export_roots r);
  List.rev !acc

(* ---------- well-formedness (qcheck over seeded runs) ---------- *)

let gen_run =
  QCheck.Gen.(
    let* seed = int_bound 1000 in
    let* rw = oneofl [ "read"; "write"; "randrw rwmixread=50" ] in
    let* iodepth = int_range 1 3 in
    let* clients = int_range 1 2 in
    return (seed, rw, iodepth, clients))

let arb_run =
  QCheck.make
    ~print:(fun (s, rw, d, c) ->
      Printf.sprintf "seed=%d rw=%s iodepth=%d clients=%d" s rw d c)
    gen_run

let well_formed (seed, rw, iodepth, clients) =
  let spec =
    spec_of
      (Printf.sprintf "name=q file=q rw=%s bs=4k size=48k iodepth=%d seed=%d"
         rw iodepth seed)
  in
  let r, _ = traced_remote ~clients spec in
  let roots = Span.export_roots r in
  if roots = [] then QCheck.Test.fail_report "no trees recorded";
  let seen_ids = Hashtbl.create 256 in
  List.iter
    (fun root ->
      if root.Span.parent_id <> 0 then
        QCheck.Test.fail_report "root has a parent";
      if root.Span.trace_id <> root.Span.span_id then
        QCheck.Test.fail_report "root trace_id is not its span_id";
      Span.iter
        (fun s ->
          if Hashtbl.mem seen_ids s.Span.span_id then
            QCheck.Test.fail_reportf "span id %d not unique" s.Span.span_id;
          Hashtbl.replace seen_ids s.Span.span_id ();
          if s.Span.trace_id <> root.Span.trace_id then
            QCheck.Test.fail_reportf "span %d leaked into another trace"
              s.Span.span_id;
          if s.Span.stop_us < s.Span.start_us then
            QCheck.Test.fail_reportf "span %d stops before it starts"
              s.Span.span_id;
          List.iter
            (fun k ->
              if k.Span.parent_id <> s.Span.span_id then
                QCheck.Test.fail_reportf "child of %d mis-parented"
                  s.Span.span_id;
              if k.Span.start_us < s.Span.start_us
                 || k.Span.stop_us > s.Span.stop_us
              then
                QCheck.Test.fail_reportf
                  "child %s [%d,%d] escapes parent %s [%d,%d]" k.Span.name
                  k.Span.start_us k.Span.stop_us s.Span.name s.Span.start_us
                  s.Span.stop_us)
            (Span.children s);
          (* a client-side RPC span brackets the grafted server subtree *)
          if String.length s.Span.name >= 4 && String.sub s.Span.name 0 4 = "rpc."
          then
            List.iter
              (fun k ->
                if
                  String.length k.Span.name >= 4
                  && String.sub k.Span.name 0 4 = "srv."
                  && not
                       (k.Span.start_us >= s.Span.start_us
                       && k.Span.stop_us <= s.Span.stop_us)
                then
                  QCheck.Test.fail_reportf
                    "server subtree %s not bracketed by client %s" k.Span.name
                    s.Span.name)
              (Span.children s))
        root)
    roots;
  true

let test_well_formed =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12
       ~name:"span trees over seeded remote runs are well-formed" arb_run
       well_formed)

(* every remote run must capture at least one tree whose client RPC
   span contains a server subtree reaching down to a disk.io leaf *)
let test_full_depth () =
  (* random reads over a file larger than the 4 MB server page cache:
     server writes are delayed (flushed by a daemon outside any request
     span) and sequential reads park in vm.wait_page behind the
     read-ahead fibers, so only a random-read miss blocks the request
     itself in Disk.Request.wait and puts disk.io under the srv
     subtree *)
  let spec = spec_of "name=d file=d rw=randread bs=4k size=6m seed=5" in
  let r, _ = traced_remote spec in
  let deep =
    List.exists
      (fun s ->
        s.Span.name = "disk.io"
        &&
        (* reached through a server subtree: its enclosing tree has a
           srv.* ancestor (tracks tell the story: disk.io under the
           server inherits "server/nfsd") *)
        s.Span.track = "server/nfsd")
      (all_spans r)
  in
  check_bool "a disk.io leaf on the server track exists" true deep

(* ---------- tracing does not perturb the simulation ---------- *)

let test_tracing_is_free () =
  let spec =
    spec_of "name=g file=g rw=randrw rwmixread=60 bs=4k size=64k seed=11"
  in
  let bare =
    let t = Clusterfs.Topology.create ~clients:1 (Helpers.config ()) in
    let jobs =
      Clusterfs.Topology.run t (fun t ->
          Fio.Run.execute (Fio.Target.remote t) spec)
    in
    Fio.Report.to_json (Fio.Report.make spec ~target:"remote" jobs)
  in
  let _, traced = traced_remote spec in
  check_string "report byte-identical with tracing on" bare traced

(* ---------- determinism of the recorder ---------- *)

let test_recorder_deterministic () =
  let spec =
    spec_of "name=s file=s rw=randrw rwmixread=40 bs=4k size=64k seed=23"
  in
  let run () =
    let r, _ = traced_remote spec in
    (Span.to_chrome r, Span.render_slowest r, List.length (Span.slow r))
  in
  let c1, s1, n1 = run () in
  let c2, s2, n2 = run () in
  check_string "chrome export byte-identical across runs" c1 c2;
  check_string "slowest-op rendering byte-identical" s1 s2;
  check_int "same slow set size" n1 n2;
  check_bool "sampler retained something" true (n1 > 0)

(* the sampler always retains the overall slowest sampled op *)
let test_sampler_keeps_max () =
  let spec = spec_of "name=m file=m rw=write bs=4k size=64k seed=7" in
  let r, _ = traced_remote spec in
  let sampled =
    (* biod.* roots are background daemons recorded with ~sample:false;
       everything else (including the closing fio.fsync) is sampled *)
    List.filter
      (fun s -> s.Span.name <> "biod.ra" && s.Span.name <> "biod.push")
      (Span.export_roots r)
  in
  let max_dur =
    List.fold_left (fun a s -> max a (Span.duration s)) 0 sampled
  in
  match Span.slow r with
  | [] -> Alcotest.fail "sampler empty"
  | slowest :: _ ->
      check_int "slowest retained tree is the true max" max_dur
        (Span.duration slowest)

(* ---------- disabled fast path ---------- *)

let test_disabled_is_passthrough () =
  Span.install None;
  check_bool "not enabled" false (Span.enabled ());
  let v =
    Span.root ~name:"r" ~track:"a/b" (fun () ->
        Span.span ~name:"s" (fun () ->
            Span.add_attr "k" (Span.I 1);
            Span.interval ~name:"i" ~start_us:0 ~stop_us:1 ();
            check_bool "no current span" true (Span.current () = None);
            41 + 1))
  in
  check_int "value passes through" 42 v

(* ---------- engine self-observability ---------- *)

let test_engine_counters () =
  let e = Sim.Engine.create () in
  check_int "nothing dispatched yet" 0 (Sim.Engine.events_dispatched e);
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep e 5;
      let h = Sim.Engine.schedule_cancellable e ~delay:1000 (fun () -> ()) in
      Sim.Engine.cancel h;
      Sim.Engine.cancel h;
      (* idempotent *)
      Sim.Engine.sleep e 5);
  Sim.Engine.run e;
  check_bool "dispatched counted" true (Sim.Engine.events_dispatched e > 0);
  check_bool "heap depth seen" true (Sim.Engine.heap_max_depth e >= 1);
  check_int "one cancellation" 1 (Sim.Engine.cancellations e);
  check_int "one process" 1 (Sim.Engine.processes_spawned e);
  (* the two sleeps crossed the Suspend handler twice *)
  check_int "suspend effects counted" 2 (Sim.Engine.effect_suspends e);
  let r = Span.create_recorder () in
  Span.with_recorder r (fun () ->
      Sim.Engine.spawn e (fun () ->
          Span.root ~name:"x" ~track:"t/x" (fun () -> Sim.Engine.sleep e 3));
      Sim.Engine.run e);
  (* span slot use under a live recorder is not an effect *)
  check_int "suspends keep counting" 3 (Sim.Engine.effect_suspends e);
  let reg = Sim.Metrics.create () in
  Sim.Engine.register_metrics e reg ~instance:"t";
  let geti name =
    match Sim.Metrics.get reg ~layer:"sim.engine" ~instance:"t" name with
    | Some (Sim.Metrics.Int n) -> n
    | _ -> Alcotest.failf "sim.engine metric %s missing" name
  in
  check_int "cancellations exported" 1 (geti "cancellations");
  check_int "eff_suspends exported" 3 (geti "eff_suspends")

(* ---------- fiber-local slots ---------- *)

(* Two interleaved processes each install their own clock, span and
   value slot, park, and must read back exactly their own; code that
   runs outside any process — a scheduled callback, a [register]
   function — sees no slot at all; and [with_clock]/[with_value]
   restore the previous value when their callback raises. *)
let test_slots_isolated () =
  let e = Sim.Engine.create () in
  let r = Span.create_recorder () in
  Span.set_clock r (fun () -> Sim.Engine.now e);
  let outside = ref [] in
  let note what =
    outside :=
      (what, Sim.Attrib.current () = None && Span.current () = None
             && Sim.Fls.get () = None)
      :: !outside
  in
  let same a b = match (a, b) with Some x, Some y -> x == y | _ -> false in
  let seen = ref [] in
  let proc id =
    let clk = Sim.Attrib.create () in
    Span.root ~name:(Printf.sprintf "p%d" id) ~track:"t/p" (fun () ->
        let mine = Span.current () in
        Sim.Attrib.with_clock clk (fun () ->
            Sim.Fls.with_value id (fun () ->
                for step = 1 to 3 do
                  Sim.Engine.schedule e (fun () -> note "scheduled callback");
                  Sim.Engine.suspend e ~register:(fun resume ->
                      note "register";
                      Sim.Engine.schedule e ~delay:(id + step) resume);
                  Sim.Attrib.charge_current "step" 1;
                  seen :=
                    ( id,
                      Sim.Fls.get () = Some id
                      && same (Sim.Attrib.current ()) (Some clk)
                      && same (Span.current ()) mine )
                    :: !seen
                done)));
    check_int (Printf.sprintf "p%d charged only its own clock" id) 3
      (Sim.Attrib.find clk "step")
  in
  Span.with_recorder r (fun () ->
      Sim.Engine.spawn e (fun () -> proc 1);
      Sim.Engine.spawn e (fun () -> proc 2);
      Sim.Engine.run e);
  Sim.Engine.check_quiescent e;
  check_int "every step checked" 6 (List.length !seen);
  check_int "only the parks crossed the Suspend handler" 6
    (Sim.Engine.effect_suspends e);
  List.iter
    (fun (id, ok) ->
      check_bool (Printf.sprintf "p%d read back its own slots" id) true ok)
    !seen;
  check_int "callbacks and registers observed" 12 (List.length !outside);
  List.iter (fun (what, none) -> check_bool (what ^ " reads None") true none)
    !outside;
  check_int "two roots, one per process" 2 (List.length (Span.roots r));
  (* restore on exceptions, inside a process *)
  let restored = ref false in
  Sim.Engine.spawn e (fun () ->
      let outer = Sim.Attrib.create () and inner = Sim.Attrib.create () in
      Sim.Attrib.with_clock outer (fun () ->
          Sim.Fls.with_value 7 (fun () ->
              (try
                 Sim.Attrib.with_clock inner (fun () ->
                     Sim.Fls.with_value 8 (fun () ->
                         Sim.Engine.sleep e 1;
                         failwith "boom"))
               with Failure _ -> ());
              restored :=
                same (Sim.Attrib.current ()) (Some outer)
                && Sim.Fls.get () = Some 7)));
  Sim.Engine.run e;
  check_bool "previous clock and value restored after a raise" true !restored;
  check_bool "nothing left installed after the run" true
    (Sim.Attrib.current () = None && Span.current () = None
     && Sim.Fls.get () = None);
  (* slot writes outside any process are dropped: wrapped around
     [Engine.run], a clock, span and value are seen neither by setup
     code, nor by callbacks before or after a process runs, nor by the
     process itself *)
  let e = Sim.Engine.create () in
  outside := [];
  let in_proc = ref false in
  Span.with_recorder r (fun () ->
      Sim.Attrib.with_clock (Sim.Attrib.create ()) (fun () ->
          Sim.Fls.with_value 9 (fun () ->
              Span.root ~name:"setup" ~track:"t/s" (fun () ->
                  note "setup code";
                  Sim.Engine.schedule e (fun () -> note "callback before");
                  Sim.Engine.spawn e (fun () ->
                      in_proc :=
                        Sim.Attrib.current () = None
                        && Span.current () = None && Sim.Fls.get () = None);
                  Sim.Engine.schedule e ~delay:1 (fun () ->
                      note "callback after");
                  Sim.Engine.run e))));
  check_bool "a process starts with empty slots" true !in_proc;
  check_int "setup and callbacks observed" 3 (List.length !outside);
  List.iter (fun (what, none) -> check_bool (what ^ " reads None") true none)
    !outside

(* ---------- span metrics ---------- *)

let test_span_metrics () =
  let spec = spec_of "name=w file=w rw=read bs=4k size=32k seed=2" in
  let r, _ = traced_remote spec in
  let reg = Sim.Metrics.create () in
  Span.register_metrics r reg ~instance:"t";
  let get name =
    match Sim.Metrics.get reg ~layer:"sim.span" ~instance:"t" name with
    | Some (Sim.Metrics.Int n) -> n
    | _ -> Alcotest.failf "sim.span metric %s missing" name
  in
  check_bool "roots recorded" true (get "roots" > 0);
  check_bool "spans recorded" true (get "spans" > get "roots");
  check_int "ring kept everything" (get "roots") (get "log_len");
  check_int "no ring drops" 0 (get "log_dropped");
  check_bool "sampler saw ops" true (get "sampled" > 0);
  check_bool "slow trees retained" true (get "slow_retained" > 0)

(* ring overflow shows up as log_dropped, and the slow sampler keeps
   its trees alive past the ring *)
let test_ring_overflow_counted () =
  let r = Span.create_recorder ~log_capacity:4 ~slow_keep:2 () in
  let spec = spec_of "name=o file=o rw=read bs=4k size=64k seed=3" in
  let _, _ = traced_remote ~recorder:r spec in
  let reg = Sim.Metrics.create () in
  Span.register_metrics r reg ~instance:"t";
  let get name =
    match Sim.Metrics.get reg ~layer:"sim.span" ~instance:"t" name with
    | Some (Sim.Metrics.Int n) -> n
    | _ -> Alcotest.failf "sim.span metric %s missing" name
  in
  check_int "ring holds its capacity" 4 (get "log_len");
  check_bool "overflow counted" true (get "log_dropped" > 0);
  check_bool "export keeps slow trees the ring dropped" true
    (List.length (Span.export_roots r) >= 4)

(* ---------- Chrome export shape ---------- *)

let test_chrome_shape () =
  let spec = spec_of "name=c file=c rw=randrw rwmixread=50 bs=4k size=48k seed=13" in
  let r, _ = traced_remote spec in
  let doc =
    match J.parse (Span.to_chrome r) with
    | Ok j -> j
    | Error e -> Alcotest.failf "to_chrome is not valid JSON: %s" e
  in
  let events =
    match J.member "traceEvents" doc with
    | Some l -> J.to_list l
    | None -> Alcotest.fail "no traceEvents"
  in
  check_bool "events present" true (events <> []);
  let named_pids = Hashtbl.create 8 and named_tids = Hashtbl.create 8 in
  let xs = ref 0 in
  List.iter
    (fun ev ->
      let num name = Option.bind (J.member name ev) J.num in
      let pid = Option.get (num "pid") and tid = Option.get (num "tid") in
      match Option.bind (J.member "ph" ev) J.str with
      | Some "M" -> (
          match Option.bind (J.member "name" ev) J.str with
          | Some "process_name" -> Hashtbl.replace named_pids pid ()
          | Some "thread_name" -> Hashtbl.replace named_tids (pid, tid) ()
          | _ -> Alcotest.fail "unknown metadata event")
      | Some "X" ->
          incr xs;
          let ts = Option.get (num "ts") and dur = Option.get (num "dur") in
          check_bool "ts non-negative" true (ts >= 0.);
          check_bool "dur non-negative" true (dur >= 0.);
          check_bool "pid named" true (Hashtbl.mem named_pids pid);
          check_bool "tid named" true (Hashtbl.mem named_tids (pid, tid))
      | _ -> Alcotest.fail "unexpected phase")
    events;
  check_bool "X events present" true (!xs > 0)

let suites =
  [
    ( "span",
      [
        test_well_formed;
        Alcotest.test_case "full client-to-disk depth captured" `Quick
          test_full_depth;
        Alcotest.test_case "tracing leaves results byte-identical" `Quick
          test_tracing_is_free;
        Alcotest.test_case "recorder output deterministic across runs" `Quick
          test_recorder_deterministic;
        Alcotest.test_case "sampler retains the slowest op" `Quick
          test_sampler_keeps_max;
        Alcotest.test_case "disabled tracing is a passthrough" `Quick
          test_disabled_is_passthrough;
        Alcotest.test_case "engine counters count" `Quick test_engine_counters;
        Alcotest.test_case "fiber-local slots stay per process" `Quick
          test_slots_isolated;
        Alcotest.test_case "sim.span metrics exported" `Quick test_span_metrics;
        Alcotest.test_case "ring overflow counted, slow trees survive" `Quick
          test_ring_overflow_counted;
        Alcotest.test_case "chrome export shape" `Quick test_chrome_shape;
      ] );
  ]
