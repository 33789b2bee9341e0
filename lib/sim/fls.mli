(** One fiber-local integer slot per simulated process.

    Each process spawned by {!Engine.spawn} owns a private slot that
    survives suspensions and is invisible to every other process — the
    same per-process slot record as {!Attrib} and {!Span}, loaded into
    a current-value cell while the process runs.  Users store a key (an
    operation id, a transaction handle index) and look their state up in
    a side table; the engine itself neither knows nor cares what the
    value means.

    Outside a process the slot reads as [None] and writes to it are
    dropped, so setup code that runs before the simulation starts —
    and scheduled callbacks, and [register] functions — can share code
    paths with process bodies. *)

val get : unit -> int option
(** Current process's slot value; [None] outside a process. *)

val set : int option -> unit
(** Store into the current process's slot; a no-op outside a process. *)

val with_value : int -> (unit -> 'a) -> 'a
(** Run with the slot set, restoring the previous value on exit (even
    by exception).  Outside a process the callback runs with the slot
    still [None]. *)

(**/**)

val cell : int option ref
(** The running process's slot; {!Engine.spawn} loads and saves it.
    Not for direct use. *)

val in_process : bool ref
(** True exactly while a spawned process runs; {!Engine.spawn} sets and
    clears it.  Slot writes in this module, {!Attrib} and {!Span} are
    dropped while it is false.  Not for direct use. *)
