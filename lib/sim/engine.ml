open Effect
open Effect.Deep

(* Specialized event heap.  The generic [Heap] keyed every event with a
   boxed [(time, seq)] tuple and compared through a closure — at fleet
   scale (millions of events for a 1024-client sweep) the tuple
   allocations and indirect compares dominate the dispatch loop.  Here
   the keys live in two parallel unboxed [int array]s (no per-event
   allocation) and the comparison is inlined int arithmetic.  Ordering
   is identical to the old [cmp_key]: strictly by time, ties broken by
   the monotone sequence number, so same-instant events stay FIFO and
   goldens stay byte-identical. *)
type events = {
  mutable times : int array;
  mutable seqs : int array;
  mutable cbs : (unit -> unit) array;
  mutable len : int;
}

let nop () = ()

let ev_create () =
  { times = Array.make 256 0; seqs = Array.make 256 0; cbs = Array.make 256 nop; len = 0 }

let ev_grow e =
  let cap = Array.length e.times in
  let cap' = cap * 2 in
  let times = Array.make cap' 0 and seqs = Array.make cap' 0 and cbs = Array.make cap' nop in
  Array.blit e.times 0 times 0 cap;
  Array.blit e.seqs 0 seqs 0 cap;
  Array.blit e.cbs 0 cbs 0 cap;
  e.times <- times;
  e.seqs <- seqs;
  e.cbs <- cbs

(* [before] is the heap order: (t1,s1) < (t2,s2) lexicographically. *)
let[@inline] before e i j =
  let ti = Array.unsafe_get e.times i and tj = Array.unsafe_get e.times j in
  ti < tj || (ti = tj && Array.unsafe_get e.seqs i < Array.unsafe_get e.seqs j)

let[@inline] ev_swap e i j =
  let t = Array.unsafe_get e.times i in
  Array.unsafe_set e.times i (Array.unsafe_get e.times j);
  Array.unsafe_set e.times j t;
  let s = Array.unsafe_get e.seqs i in
  Array.unsafe_set e.seqs i (Array.unsafe_get e.seqs j);
  Array.unsafe_set e.seqs j s;
  let c = Array.unsafe_get e.cbs i in
  Array.unsafe_set e.cbs i (Array.unsafe_get e.cbs j);
  Array.unsafe_set e.cbs j c

let ev_push e ~time ~seq cb =
  if e.len = Array.length e.times then ev_grow e;
  let i = ref e.len in
  e.times.(!i) <- time;
  e.seqs.(!i) <- seq;
  e.cbs.(!i) <- cb;
  e.len <- e.len + 1;
  (* sift up *)
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before e !i parent then begin
      ev_swap e !i parent;
      i := parent
    end
    else continue_ := false
  done

(* Remove the root (callers read [times.(0)]/[cbs.(0)] first).  Clears
   the vacated closure slot so it isn't pinned until the next grow. *)
let ev_drop_root e =
  let last = e.len - 1 in
  e.len <- last;
  e.times.(0) <- e.times.(last);
  e.seqs.(0) <- e.seqs.(last);
  e.cbs.(0) <- e.cbs.(last);
  e.cbs.(last) <- nop;
  (* sift down *)
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 in
    if l >= last then continue_ := false
    else begin
      let r = l + 1 in
      let m = if r < last && before e r l then r else l in
      if before e m !i then begin
        ev_swap e !i m;
        i := m
      end
      else continue_ := false
    end
  done

type t = {
  mutable now : Time.t;
  mutable seq : int;
  events : events;
  mutable blocked : int; (* processes currently suspended *)
  (* self-observability: fleet-scale runs stress the engine itself, so
     the hot paths keep cheap counters a metrics source can read *)
  mutable dispatched : int;
  mutable heap_max : int;
  mutable cancellations : int;
  mutable spawned : int;
  (* how often a process parks: the effect-handler half of the hot path *)
  mutable eff_suspends : int;
}

exception Deadlock of string

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let create () =
  {
    now = 0;
    seq = 0;
    events = ev_create ();
    blocked = 0;
    dispatched = 0;
    heap_max = 0;
    cancellations = 0;
    spawned = 0;
    eff_suspends = 0;
  }

let now t = t.now

let schedule t ?(delay = 0) f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  t.seq <- t.seq + 1;
  ev_push t.events ~time:(t.now + delay) ~seq:t.seq f;
  if t.events.len > t.heap_max then t.heap_max <- t.events.len

(* A cancellable event is a heap entry indirected through a mutable
   cell.  Cancelling empties the cell: the heap slot itself stays (the
   heap has no removal), but it fires as a no-op and — the point — the
   cancelled closure and everything it captures are released
   immediately instead of being pinned until the deadline. *)
type timer = { mutable cb : (unit -> unit) option; owner : t }

let schedule_cancellable t ?delay f =
  let h = { cb = Some f; owner = t } in
  schedule t ?delay (fun () ->
      match h.cb with
      | Some f ->
          h.cb <- None;
          f ()
      | None -> ());
  h

let cancel h =
  if h.cb <> None then begin
    h.owner.cancellations <- h.owner.cancellations + 1;
    h.cb <- None
  end

let cancelled h = h.cb = None

(* A process's fiber-local slots: its attribution clock ([Attrib]),
   current span ([Span]) and value slot ([Fls]).  The engine runs one
   process at a time, so while a process runs its slots live in those
   modules' current-value cells, where every read is a plain load; while
   it is parked they live here. *)
type slots = {
  mutable clock : Attrib.clock option;
  mutable span : Span.t option;
  mutable fls : int option;
}

(* Most processes never install a slot, so each copy skips the store
   (and its write barrier) when the value is already in place: parking
   and resuming such a process costs a few loads. *)
let[@inline] put r v = if !r != v then r := v

let enter s =
  Fls.in_process := true;
  put Attrib.cell s.clock;
  put Span.cell s.span;
  put Fls.cell s.fls

let clear () =
  Fls.in_process := false;
  put Attrib.cell None;
  put Span.cell None;
  put Fls.cell None

let leave s =
  if s.clock != !Attrib.cell then s.clock <- !Attrib.cell;
  if s.span != !Span.cell then s.span <- !Span.cell;
  if s.fls != !Fls.cell then s.fls <- !Fls.cell;
  clear ()

(* Run [f] as a process: a [Suspend register] effect performed by [f]
   hands the continuation, wrapped as a plain thunk, to [register];
   resuming the thunk re-enters the handler.  The process's slots are
   entered before it starts or continues and left (saved, then the
   cells cleared) when it parks or ends, so [register], scheduled
   callbacks and setup code all read [None] (their slot writes are
   dropped: [Fls.in_process] is false there). *)
let spawn t ?name f =
  let name = Option.value name ~default:"process" in
  t.spawned <- t.spawned + 1;
  let s = { clock = None; span = None; fls = None } in
  let body () =
    enter s;
    match_with f ()
      {
        retc = clear;
        exnc =
          (fun e ->
            clear ();
            raise
              (Failure
                 (Printf.sprintf "process %s died: %s" name (Printexc.to_string e))));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
                Some
                  (fun (k : (a, _) continuation) ->
                    leave s;
                    t.eff_suspends <- t.eff_suspends + 1;
                    t.blocked <- t.blocked + 1;
                    let resumed = ref false in
                    let resume () =
                      if !resumed then
                        invalid_arg "Engine: process resumed twice";
                      resumed := true;
                      t.blocked <- t.blocked - 1;
                      schedule t (fun () ->
                          enter s;
                          continue k ())
                    in
                    register resume)
            | _ -> None);
      }
  in
  schedule t body

let suspend _t ~register = perform (Suspend register)

let sleep t d =
  if d < 0 then invalid_arg "Engine.sleep: negative duration";
  if d = 0 then ()
  else suspend t ~register:(fun resume -> schedule t ~delay:d resume)

(* The dispatch loop reads the root in place and drops it — no option,
   no tuple, no pair allocation per event. *)
let run t =
  let e = t.events in
  while e.len > 0 do
    let at = Array.unsafe_get e.times 0 in
    let f = Array.unsafe_get e.cbs 0 in
    ev_drop_root e;
    assert (at >= t.now);
    t.now <- at;
    t.dispatched <- t.dispatched + 1;
    f ()
  done

let run_for t d =
  let stop = t.now + d in
  let e = t.events in
  let continue_ = ref true in
  while !continue_ do
    if e.len > 0 && Array.unsafe_get e.times 0 <= stop then begin
      let at = Array.unsafe_get e.times 0 in
      let f = Array.unsafe_get e.cbs 0 in
      ev_drop_root e;
      t.now <- at;
      t.dispatched <- t.dispatched + 1;
      f ()
    end
    else begin
      t.now <- stop;
      continue_ := false
    end
  done

let live_processes t = t.blocked

let check_quiescent t =
  if t.blocked > 0 then
    raise
      (Deadlock
         (Printf.sprintf "%d process(es) still suspended at %s" t.blocked
            (Time.to_string t.now)))

let events_dispatched t = t.dispatched
let heap_max_depth t = t.heap_max
let cancellations t = t.cancellations
let processes_spawned t = t.spawned
let effect_suspends t = t.eff_suspends
let effect_attrib_ops _ = 0
let effect_span_ops _ = 0
let effect_fls_ops _ = 0

let register_metrics t reg ~instance =
  Metrics.register reg ~layer:"sim.engine" ~instance (fun () ->
      [
        ("events_dispatched", Metrics.Int t.dispatched);
        ("heap_max_depth", Metrics.Int t.heap_max);
        ("heap_len", Metrics.Int t.events.len);
        ("cancellations", Metrics.Int t.cancellations);
        ("processes_spawned", Metrics.Int t.spawned);
        ("eff_suspends", Metrics.Int t.eff_suspends);
        ("now_us", Metrics.Int t.now);
      ])
