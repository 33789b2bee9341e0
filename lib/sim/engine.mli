(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue.  Simulated
    activities ("processes": benchmark drivers, the pageout daemon, the
    disk service loop) are ordinary OCaml functions run as one-shot
    effect-handler coroutines: inside a process, {!sleep} and {!suspend}
    yield control back to the engine, which resumes the process when the
    requested virtual time arrives or when another process wakes it.

    Determinism: events scheduled for the same instant fire in FIFO
    order (a monotonically increasing sequence number breaks ties), and
    nothing in the engine consults wall-clock time or [Random]. *)

type t

exception Deadlock of string
(** Raised by {!check_quiescent} when processes remain blocked but no
    event can ever wake them. *)

val create : unit -> t

val now : t -> Time.t
(** Current virtual time. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] schedules process [f] to start at the current virtual
    time.  Exceptions escaping [f] abort the whole simulation run (they
    propagate out of {!run}).  [name] is used in error messages.  The
    process owns private {!Attrib}, {!Span} and {!Fls} slots: they are
    current only while it runs, survive its suspensions, and read
    [None] everywhere else. *)

val sleep : t -> Time.t -> unit
(** Advance virtual time by the given duration.  Must be called from
    within a process. *)

val suspend : t -> register:((unit -> unit) -> unit) -> unit
(** [suspend t ~register] parks the calling process.  [register] is
    called immediately with a [resume] thunk; stashing [resume] somewhere
    (a wait queue, a completion callback) and calling it later — from any
    process or event — reschedules the parked process at that moment's
    virtual time.  Calling [resume] more than once is an error. *)

val schedule : t -> ?delay:Time.t -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs callback [f] (not a process: it must not
    sleep or suspend) at [now t + delay].  [delay] defaults to zero. *)

type timer
(** A cancellable scheduled event (an RPC retransmission timer). *)

val schedule_cancellable : t -> ?delay:Time.t -> (unit -> unit) -> timer
(** Like {!schedule}, but returns a handle.  {!cancel} before the
    deadline and the event fires as a no-op; the callback (and whatever
    it captures) is released at cancel time, not at the deadline —
    without this, every answered RPC would pin its timeout closure in
    the heap for the full retransmission interval. *)

val cancel : timer -> unit
(** Idempotent; a timer that already fired is a no-op to cancel. *)

val cancelled : timer -> bool
(** True once the timer was cancelled {e or} has fired. *)

val run : t -> unit
(** Run until the event queue is empty.  Suspended processes that are
    never resumed are simply abandoned (as in a real deadlock); use
    {!live_processes} or {!check_quiescent} to detect that in tests. *)

val run_for : t -> Time.t -> unit
(** Run events until virtual time reaches [now + duration]; the clock is
    advanced to exactly that instant even if the queue empties sooner. *)

val live_processes : t -> int
(** Number of spawned processes that have neither returned nor are
    queued to run — i.e. currently suspended. *)

val check_quiescent : t -> unit
(** After {!run}: raise {!Deadlock} if any process is still suspended. *)

(** {1 Self-observability}

    The engine's own hot paths (heap, dispatch loop, timer churn) are
    what fleet-scale sweeps stress; these counters are the profiling
    baseline. *)

val events_dispatched : t -> int
(** Events popped and run by {!run}/{!run_for} so far. *)

val heap_max_depth : t -> int
(** High-water mark of the event heap. *)

val cancellations : t -> int
(** Timers cancelled before firing (each was a dead heap slot). *)

val processes_spawned : t -> int

val effect_suspends : t -> int
(** [Suspend] effects handled — one per process park (sleep, I/O wait,
    condition wait). *)

val effect_attrib_ops : t -> int
val effect_span_ops : t -> int

val effect_fls_ops : t -> int
(** These three always return 0: the fiber-local slots ([Attrib],
    [Span], [Fls]) are per-process fields, not effects, so no slot
    access crosses the handler and {!effect_suspends} counts every
    effect.  They exist only because [perfbench/layers.ml] adds them
    into its [sim.effects_per_op] figure. *)

val register_metrics : t -> Metrics.t -> instance:string -> unit
(** Register a ["sim.engine"] metrics source over the counters above. *)
