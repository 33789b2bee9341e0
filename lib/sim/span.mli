(** Structured distributed tracing: per-operation span trees.

    Where {!Attrib} answers "how much time did ops spend per layer in
    aggregate", a span tree answers "what did {e this} op do, in what
    order, on which daemon": every operation of interest opens a root
    span, layers it passes through open child spans (or record
    [interval]s after the fact, from timestamps they already keep), and
    the finished tree carries trace/span/parent ids, start/stop stamps
    in simulated time, and typed attributes.

    The current span travels fiber-locally exactly like the attribution
    clock: it is a field of the per-process slots {!Engine.spawn} keeps,
    loaded into a current-value cell while the process runs, so it
    survives suspensions and never leaks between processes.  Outside a
    process there is no current span: {!root} and {!subtree} called
    there still build and record their span but do not make it current,
    so nothing [f] dispatches (an [Engine.run], say) attaches to it.  Crossing
    the RPC wire, a caller ships its {!ctx} (trace id + parent span id)
    as call metadata; the server builds a detached {!subtree} under that
    ctx and ships the finished tree back in the reply, where {!graft}
    reattaches it under the caller's RPC span — the client's span then
    {e brackets} the server-side subtree in one tree.

    Tracing is pure bookkeeping: with no recorder installed (the
    default) every entry point is a passthrough that reads no span,
    allocates nothing, and schedules nothing, so simulated timing is
    byte-identical with tracing on or off.

    Two consumers: a bounded ring log of finished trees exported as
    Chrome trace-event JSON ({!to_chrome}, loadable in Perfetto), and a
    deterministic slow-op sampler that retains the complete tree of any
    sampled root whose duration reaches the configured threshold or the
    current streaming p99 ({!slow}, {!render_slowest}). *)

type attr = I of int | S of string | B of bool

type t = {
  trace_id : int;  (** the root span's id, shared by the whole tree *)
  span_id : int;  (** globally unique (one id well per recorder) *)
  parent_id : int;  (** 0 for roots *)
  name : string;
  track : string;  (** ["process/thread"] label for the exporter *)
  start_us : Time.t;
  mutable stop_us : Time.t;
  mutable attrs : (string * attr) list;  (** oldest first *)
  mutable kids : t list;  (** newest first; use {!children} *)
}

val children : t -> t list
(** Child spans, oldest first. *)

val duration : t -> Time.t

val iter : (t -> unit) -> t -> unit
(** Depth-first, parent before children, children oldest first. *)

(** {1 Recorder} *)

type recorder

val create_recorder :
  ?log_capacity:int ->
  ?slow_keep:int ->
  ?threshold_us:Time.t ->
  unit ->
  recorder
(** [log_capacity] bounds the ring of finished root trees (default
    2048; overflow counts as [log_dropped]).  The slow-op sampler keeps
    at most [slow_keep] trees (default 32), retaining a sampled root
    when its duration reaches [threshold_us] {e or} the streaming p99
    of all sampled roots so far; evictions count as [slow_drops].
    Everything inside is deterministic — two identical runs retain
    identical trees. *)

val set_clock : recorder -> (unit -> Time.t) -> unit
(** Bind the recorder to a virtual clock (normally [Engine.now]).
    Machines rebind on build, so one recorder can observe a sequence of
    runs. *)

val install : recorder option -> unit
(** Make the recorder ambient (like [Machine]'s metrics sink). *)

val installed : unit -> recorder option

val with_recorder : recorder -> (unit -> 'a) -> 'a
(** Install for the duration of [f], restoring the previous recorder. *)

val enabled : unit -> bool
(** A recorder is installed and switched on. *)

val enable : recorder -> bool -> unit
(** Recorders start enabled; switch off to freeze their contents. *)

(** {1 Fiber-local current span} *)

val current : unit -> t option
(** The calling process's current span; [None] outside a process. *)

(** {1 Instrumentation} *)

val root :
  name:string ->
  track:string ->
  ?attrs:(string * attr) list ->
  ?sample:bool ->
  (unit -> 'a) ->
  'a
(** Open a new trace around [f]: the span becomes the fiber's current
    span; on exit the finished tree goes to the ring log and — when
    [sample] (default true) — to the slow-op sampler.  Background work
    (read-ahead, write-behind daemons) passes [~sample:false] so it is
    visible in the timeline without polluting the op-latency p99. *)

val span :
  name:string ->
  ?track:string ->
  ?attrs:(string * attr) list ->
  (unit -> 'a) ->
  'a
(** Child span of the current span around [f]; a passthrough when
    there is no current span (setup traffic stays untraced).  [track]
    defaults to the parent's. *)

val interval :
  name:string ->
  ?track:string ->
  ?attrs:(string * attr) list ->
  start_us:Time.t ->
  stop_us:Time.t ->
  unit ->
  unit
(** Record an already-elapsed child of the current span from the
    timestamps the instrumented layer kept anyway (queue entry/exit,
    transmit stamps).  No-op without a current span. *)

val add_attr : string -> attr -> unit
(** Attach an attribute to the current span, if any. *)

(** {1 Wire propagation} *)

type ctx = { trace : int; parent : int }
(** What crosses the wire in a call: enough to parent the server-side
    subtree into the caller's trace. *)

val ctx : unit -> ctx option
(** The current span as a wire context ([None] when untraced — the
    server then skips its subtree entirely). *)

val subtree :
  ctx ->
  name:string ->
  track:string ->
  ?attrs:(string * attr) list ->
  ?start_us:Time.t ->
  (unit -> 'a) ->
  'a * t option
(** Run [f] under a detached span parented on [ctx] (the server side of
    a traced call).  The finished tree is returned — not logged — so
    the callee can ship it back in its reply.  [start_us] backdates the
    span (default: now): the server opens its subtree at the client's
    transmit stamp so the inbound-wire and queue intervals it then
    records nest inside it. *)

val graft : t -> unit
(** Reattach a received subtree under the current span (the client side
    of reply processing).  No-op without a current span. *)

(** {1 Consumers} *)

val roots : recorder -> t list
(** Finished root trees still in the ring, oldest first. *)

val slow : recorder -> t list
(** Retained slow-op trees, slowest first (ties: older first). *)

val export_roots : recorder -> t list
(** Ring roots plus any retained slow trees the ring has already
    dropped, sorted by start time then span id — the exporter's view. *)

val to_chrome : recorder -> string
(** Chrome trace-event JSON (Perfetto-loadable): one complete ["X"]
    event per span with [ts]/[dur] in simulated microseconds, plus
    ["M"] metadata naming every process and thread.  Tracks map to
    pid/tid: the part of {!t.track} before ['/'] is the process, the
    rest the thread; ids are assigned deterministically in first-seen
    order. *)

val render_slowest : ?limit:int -> recorder -> string
(** Text tree of the slowest retained ops (default up to 3). *)

val register_metrics : recorder -> Metrics.t -> instance:string -> unit
(** Register a ["sim.span"] source: roots/spans recorded, ring length
    and drops, sampler retained/drops. *)

(**/**)

val cell : t option ref
(** The running process's current span; {!Engine.spawn} loads and saves
    it.  Not for direct use. *)
