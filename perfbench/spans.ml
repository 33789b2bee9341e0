(* The benchmark's own span recorder.  Spans are opened only from the
   benchmark's code, around its calls into the simulator's layers, and
   carry both clocks: simulated time (what the modeled system spent)
   and host time (what the simulator itself spent).  With no recorder
   installed every wrapper is a plain call. *)

type span = {
  id : int;
  parent : int;  (* 0 for a phase root *)
  name : string;
  sim_start_us : int;
  sim_stop_us : int;
  host_start_s : float;
  host_stop_s : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable phase : int;  (* the enclosing phase span: parent of new spans *)
  mutable clock : unit -> int;  (* simulated µs of the current engine *)
}

let current : t option ref = ref None

let create () =
  { spans = []; next_id = 1; phase = 0; clock = (fun () -> 0) }

let set_engine t engine = t.clock <- (fun () -> Sim.Engine.now engine)

(* Drop the engine (and every machine it keeps alive) once a
   repetition is over. *)
let detach t = t.clock <- (fun () -> 0)

(* Simulated operations interleave across fibers, so a span's parent is
   the phase that issued it (sim.run, fio.prepare, ...), not whatever
   span happens to be open on the host stack. *)
let record t ~name ~parent =
  let id = t.next_id in
  t.next_id <- id + 1;
  let sim0 = t.clock () and host0 = Unix.gettimeofday () in
  let finish () =
    t.spans <-
      {
        id;
        parent;
        name;
        sim_start_us = sim0;
        sim_stop_us = t.clock ();
        host_start_s = host0;
        host_stop_s = Unix.gettimeofday ();
      }
      :: t.spans
  in
  (id, finish)

let span name f =
  match !current with
  | None -> f ()
  | Some t ->
      let _, finish = record t ~name ~parent:t.phase in
      Fun.protect ~finally:finish f

let phase name f =
  match !current with
  | None -> f ()
  | Some t ->
      let id, finish = record t ~name ~parent:t.phase in
      let outer = t.phase in
      t.phase <- id;
      Fun.protect
        ~finally:(fun () ->
          t.phase <- outer;
          finish ())
        f

let spans t = List.rev t.spans

let count t name =
  List.fold_left (fun acc s -> if s.name = name then acc + 1 else acc) 0 t.spans

(* Chrome trace-event JSON, loadable in Perfetto.  Process 1 lays the
   spans out on the host clock, process 2 on the simulated clock.
   Concurrent simulated ops overlap without nesting, so each span goes
   to the first thread of its clock whose previous span has ended
   (greedy interval colouring), which keeps every thread well nested. *)
let to_chrome t =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let emit fmt =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Printf.bprintf b fmt
  in
  let all = spans t in
  let host_base =
    List.fold_left (fun acc s -> Float.min acc s.host_start_s) infinity all
  in
  let lay pid pname start stop =
    emit
      "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
      pid pname;
    let sorted =
      List.stable_sort (fun a b -> compare (start a) (start b)) all
    in
    let lanes = ref [||] in
    List.iter
      (fun s ->
        let st = start s and sp = stop s in
        let rec pick i =
          if i = Array.length !lanes then begin
            lanes := Array.append !lanes [| sp |];
            i
          end
          else if !lanes.(i) <= st then begin
            !lanes.(i) <- Float.max sp st;
            i
          end
          else pick (i + 1)
        in
        let tid = pick 0 in
        emit
          "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"sim_start_us\":%d,\"sim_stop_us\":%d,\"host_start_us\":%.3f,\"host_stop_us\":%.3f}}"
          pid tid s.name st (sp -. st) s.id s.parent s.sim_start_us s.sim_stop_us
          ((s.host_start_s -. host_base) *. 1e6)
          ((s.host_stop_s -. host_base) *. 1e6))
      sorted;
    Array.iteri
      (fun tid _ ->
        emit
          "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"lane %d\"}}"
          pid tid tid)
      !lanes
  in
  lay 1 "host clock"
    (fun s -> (s.host_start_s -. host_base) *. 1e6)
    (fun s -> (s.host_stop_s -. host_base) *. 1e6);
  lay 2 "simulated clock"
    (fun s -> float_of_int s.sim_start_us)
    (fun s -> float_of_int s.sim_stop_us);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b
