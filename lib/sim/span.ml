type attr = I of int | S of string | B of bool

type t = {
  trace_id : int;
  span_id : int;
  parent_id : int;
  name : string;
  track : string;
  start_us : Time.t;
  mutable stop_us : Time.t;
  mutable attrs : (string * attr) list;
  mutable kids : t list;
}

let children sp = List.rev sp.kids
let duration sp = sp.stop_us - sp.start_us

let rec iter f sp =
  f sp;
  List.iter (iter f) (children sp)

type recorder = {
  mutable on : bool;
  mutable clock : unit -> Time.t;
  mutable next_id : int;
  mutable spans_made : int;
  (* ring of finished root trees *)
  log_capacity : int;
  log : t Queue.t;
  mutable log_dropped : int;
  mutable roots_done : int;
  (* slow-op sampler *)
  slow_keep : int;
  threshold_us : Time.t option;
  lat : Stats.Summary.t;
  mutable sampled : int;
  mutable slowset : (Time.t * int * t) list;  (* (duration, arrival seq, tree) *)
  mutable slow_seq : int;
  mutable slow_drops : int;
}

let create_recorder ?(log_capacity = 2048) ?(slow_keep = 32) ?threshold_us () =
  {
    on = true;
    clock = (fun () -> 0);
    next_id = 0;
    spans_made = 0;
    log_capacity = max 1 log_capacity;
    log = Queue.create ();
    log_dropped = 0;
    roots_done = 0;
    slow_keep = max 1 slow_keep;
    threshold_us;
    lat = Stats.Summary.create ();
    sampled = 0;
    slowset = [];
    slow_seq = 0;
    slow_drops = 0;
  }

let set_clock r now = r.clock <- now

(* Ambient recorder, like Machine's metrics sink: experiments build
   machines internally, so the caller that wants traces installs one
   recorder here instead of threading it through every layer. *)
let ambient : recorder option ref = ref None

let install r = ambient := r
let installed () = !ambient

let with_recorder r f =
  let saved = !ambient in
  ambient := Some r;
  Fun.protect ~finally:(fun () -> ambient := saved) f

let enable r v = r.on <- v

(* The disabled fast path is this one read of a global ref: the current
   span is never touched, nothing is allocated. *)
let active () =
  match !ambient with Some r when r.on -> Some r | _ -> None

let enabled () = active () <> None

(* Loaded and saved by [Engine.spawn] like [Attrib.cell]: outside any
   process there is no current span and tracing is off for that code. *)
let cell : t option ref = ref None

let current () = !cell

(* Outside a process the write is dropped, as in [Fls.set]. *)
let set_current v = if !Fls.in_process then cell := v

let fresh_id r =
  r.next_id <- r.next_id + 1;
  r.next_id

let mk r ~trace ~parent ~name ~track ~attrs ~start_us =
  r.spans_made <- r.spans_made + 1;
  let span_id = fresh_id r in
  {
    trace_id = (if trace = 0 then span_id else trace);
    span_id;
    parent_id = parent;
    name;
    track;
    start_us;
    stop_us = start_us;
    attrs;
    kids = [];
  }

let close r sp = sp.stop_us <- max sp.start_us (r.clock ())

(* ---------- sinking finished roots ---------- *)

(* Retention is by (duration, then arrival order), all simulated-time
   quantities: two identical runs retain identical trees. *)
let sample_slow r sp =
  let dur = duration sp in
  r.sampled <- r.sampled + 1;
  Stats.Summary.add r.lat (float_of_int dur);
  let qualifies =
    (match r.threshold_us with Some th -> dur >= th | None -> false)
    || float_of_int dur >= Stats.Summary.percentile_of r.lat 99.
  in
  if qualifies then begin
    r.slow_seq <- r.slow_seq + 1;
    r.slowset <- (dur, r.slow_seq, sp) :: r.slowset;
    if List.length r.slowset > r.slow_keep then begin
      (* evict the least slow; on equal durations keep the older tree *)
      let victim =
        List.fold_left
          (fun best ((d, s, _) as e) ->
            match best with
            | Some (bd, bs, _) when bd < d || (bd = d && bs < s) -> best
            | _ -> Some e)
          None r.slowset
      in
      match victim with
      | Some (_, vs, _) ->
          r.slowset <- List.filter (fun (_, s, _) -> s <> vs) r.slowset;
          r.slow_drops <- r.slow_drops + 1
      | None -> ()
    end
  end

let complete_root r ~sample sp =
  r.roots_done <- r.roots_done + 1;
  if Queue.length r.log >= r.log_capacity then begin
    ignore (Queue.pop r.log);
    r.log_dropped <- r.log_dropped + 1
  end;
  Queue.push sp r.log;
  if sample then sample_slow r sp

(* ---------- instrumentation entry points ---------- *)

let root ~name ~track ?(attrs = []) ?(sample = true) f =
  match active () with
  | None -> f ()
  | Some r ->
      let sp =
        mk r ~trace:0 ~parent:0 ~name ~track ~attrs ~start_us:(r.clock ())
      in
      let prev = !cell in
      set_current (Some sp);
      Fun.protect
        ~finally:(fun () ->
          set_current prev;
          close r sp;
          complete_root r ~sample sp)
        f

let span ~name ?track ?(attrs = []) f =
  match active () with
  | None -> f ()
  | Some r -> (
      match current () with
      | None -> f ()
      | Some parent ->
          let track = Option.value track ~default:parent.track in
          let sp =
            mk r ~trace:parent.trace_id ~parent:parent.span_id ~name ~track
              ~attrs ~start_us:(r.clock ())
          in
          parent.kids <- sp :: parent.kids;
          set_current (Some sp);
          Fun.protect
            ~finally:(fun () ->
              set_current (Some parent);
              close r sp)
            f)

let interval ~name ?track ?(attrs = []) ~start_us ~stop_us () =
  match active () with
  | None -> ()
  | Some r -> (
      match current () with
      | None -> ()
      | Some parent ->
          let track = Option.value track ~default:parent.track in
          let sp =
            mk r ~trace:parent.trace_id ~parent:parent.span_id ~name ~track
              ~attrs ~start_us
          in
          sp.stop_us <- max start_us stop_us;
          parent.kids <- sp :: parent.kids)

let add_attr k v =
  match active () with
  | None -> ()
  | Some _ -> (
      match current () with
      | None -> ()
      | Some sp -> sp.attrs <- sp.attrs @ [ (k, v) ])

(* ---------- wire propagation ---------- *)

type ctx = { trace : int; parent : int }

let ctx () =
  match active () with
  | None -> None
  | Some _ -> (
      match current () with
      | None -> None
      | Some sp -> Some { trace = sp.trace_id; parent = sp.span_id })

let subtree c ~name ~track ?(attrs = []) ?start_us f =
  match active () with
  | None -> (f (), None)
  | Some r ->
      let start_us = Option.value start_us ~default:(r.clock ()) in
      let sp = mk r ~trace:c.trace ~parent:c.parent ~name ~track ~attrs ~start_us in
      let prev = !cell in
      set_current (Some sp);
      let result =
        Fun.protect
          ~finally:(fun () ->
            set_current prev;
            close r sp)
          f
      in
      (result, Some sp)

let graft sub =
  match active () with
  | None -> ()
  | Some _ -> (
      match current () with
      | None -> ()
      | Some parent -> parent.kids <- sub :: parent.kids)

(* ---------- consumers ---------- *)

let roots r = List.of_seq (Queue.to_seq r.log)

let slow r =
  List.map
    (fun (_, _, sp) -> sp)
    (List.sort
       (fun (d1, s1, _) (d2, s2, _) ->
         if d1 <> d2 then compare d2 d1 else compare s1 s2)
       r.slowset)

let export_roots r =
  let ring = roots r in
  let seen = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace seen sp.span_id ()) ring;
  let extra =
    List.filter (fun sp -> not (Hashtbl.mem seen sp.span_id)) (slow r)
  in
  List.sort
    (fun a b ->
      if a.start_us <> b.start_us then compare a.start_us b.start_us
      else compare a.span_id b.span_id)
    (ring @ extra)

(* ---------- Chrome trace-event export ---------- *)

let attr_json = function
  | I n -> string_of_int n
  | S s -> Printf.sprintf "\"%s\"" (Json.escape s)
  | B b -> if b then "true" else "false"

let split_track track =
  match String.index_opt track '/' with
  | Some i ->
      ( String.sub track 0 i,
        String.sub track (i + 1) (String.length track - i - 1) )
  | None -> (track, track)

(* pids and tids are assigned in first-seen order over the
   deterministic export walk, so the same run yields the same file. *)
let to_chrome r =
  let b = Buffer.create 4096 in
  let pids = Hashtbl.create 8 and tids = Hashtbl.create 16 in
  let pid_order = ref [] and tid_order = ref [] in
  let pid_of proc =
    match Hashtbl.find_opt pids proc with
    | Some p -> p
    | None ->
        let p = Hashtbl.length pids + 1 in
        Hashtbl.replace pids proc p;
        pid_order := (p, proc) :: !pid_order;
        p
  in
  let tid_of track =
    match Hashtbl.find_opt tids track with
    | Some pt -> pt
    | None ->
        let proc, thread = split_track track in
        let p = pid_of proc in
        let t = Hashtbl.length tids + 1 in
        Hashtbl.replace tids track (p, t);
        tid_order := (p, t, thread) :: !tid_order;
        (p, t)
  in
  let exported = export_roots r in
  List.iter (fun sp -> iter (fun s -> ignore (tid_of s.track)) sp) exported;
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let event s =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b s
  in
  List.iter
    (fun (p, proc) ->
      event
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
           p (Json.escape proc)))
    (List.rev !pid_order);
  List.iter
    (fun (p, t, thread) ->
      event
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
           p t (Json.escape thread)))
    (List.rev !tid_order);
  (* each track's slices in time order: trees from separate runs in one
     recorder session (a local and a remote run both owning "fio.job0")
     interleave on shared tracks, and viewers expect sorted slices *)
  let slices = ref [] in
  List.iter
    (fun root ->
      iter
        (fun s ->
          let p, t = tid_of s.track in
          slices := (p, t, s) :: !slices)
        root)
    exported;
  let slices =
    List.sort
      (fun (p1, t1, s1) (p2, t2, s2) ->
        if p1 <> p2 then compare p1 p2
        else if t1 <> t2 then compare t1 t2
        else if s1.start_us <> s2.start_us then compare s1.start_us s2.start_us
        else if duration s1 <> duration s2 then
          compare (duration s2) (duration s1) (* enclosing slice first *)
        else compare s1.span_id s2.span_id)
      (List.rev !slices)
  in
  List.iter
    (fun (p, t, s) ->
      let args =
        String.concat ","
          (Printf.sprintf "\"trace\":%d,\"span\":%d,\"parent\":%d" s.trace_id
             s.span_id s.parent_id
          :: List.map
               (fun (k, v) ->
                 Printf.sprintf "\"%s\":%s" (Json.escape k) (attr_json v))
               s.attrs)
      in
      event
        (Printf.sprintf
           "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"name\":\"%s\",\"cat\":\"sim\",\"args\":{%s}}"
           p t s.start_us (duration s) (Json.escape s.name) args))
    slices;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ---------- text renderer ---------- *)

let render_attrs attrs =
  String.concat " "
    (List.map
       (fun (k, v) ->
         Printf.sprintf "%s=%s" k
           (match v with
           | I n -> string_of_int n
           | S s -> s
           | B b -> string_of_bool b))
       attrs)

let render_tree b root =
  let rec go depth parent_track sp =
    let track =
      if sp.track = parent_track then "" else Printf.sprintf " [%s]" sp.track
    in
    let attrs = render_attrs sp.attrs in
    Buffer.add_string b
      (Printf.sprintf "%s%-*s @+%dus %dus%s%s\n" (String.make (2 * depth) ' ')
         (max 1 (30 - (2 * depth)))
         sp.name
         (sp.start_us - root.start_us)
         (duration sp) track
         (if attrs = "" then "" else " " ^ attrs));
    List.iter (go (depth + 1) sp.track) (children sp)
  in
  go 0 "" root

let render_slowest ?(limit = 3) r =
  let b = Buffer.create 1024 in
  let retained = slow r in
  Buffer.add_string b
    (Printf.sprintf "slowest ops: %d retained of %d sampled (%d roots)\n"
       (List.length retained) r.sampled r.roots_done);
  List.iteri
    (fun i sp ->
      if i < limit then begin
        Buffer.add_string b
          (Printf.sprintf "#%d  %s  %dus  trace=%d  track=%s\n" (i + 1)
             sp.name (duration sp) sp.trace_id sp.track);
        render_tree b sp
      end)
    retained;
  Buffer.contents b

let register_metrics r reg ~instance =
  Metrics.register reg ~layer:"sim.span" ~instance (fun () ->
      [
        ("roots", Metrics.Int r.roots_done);
        ("spans", Metrics.Int r.spans_made);
        ("log_len", Metrics.Int (Queue.length r.log));
        ("log_dropped", Metrics.Int r.log_dropped);
        ("sampled", Metrics.Int r.sampled);
        ("slow_retained", Metrics.Int (List.length r.slowset));
        ("slow_drops", Metrics.Int r.slow_drops);
      ])
