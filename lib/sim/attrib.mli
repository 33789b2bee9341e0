(** Per-operation cost attribution: a fiber-local phase clock.

    A {!clock} accumulates simulated time per named phase
    (["disk.seek"], ["rpc.wait"], ["wire"], …).  The clock travels with
    the simulated process that owns the current operation: {!with_clock}
    installs it for the dynamic extent of the operation, and any layer
    the operation blocks in charges the {e current} clock via
    {!charge_current} — the disk layer when the process waits on a
    request, the RPC layer when it waits on a reply, the NFS client
    when it waits on an in-flight page.

    "Current" is per-{e process} (fiber), not global: the engine keeps
    one clock slot per spawned process and loads it into a current-value
    cell only while that process runs, so two concurrent benchmark jobs
    each see only their own waits.  Processes the operation never
    blocks in (biods, nfsds working on someone else's call) charge
    their own clocks or none at all.  Outside any simulated process
    there is no clock and charging is a no-op: {!with_clock} there runs
    its callback without installing the clock, so a clock installed
    around [Engine.run] is seen by nothing the run dispatches.

    Charging is pure bookkeeping — it never schedules events, sleeps or
    otherwise perturbs the simulation, so instrumented and
    uninstrumented runs are time-step identical. *)

type clock

val create : unit -> clock

val charge : clock -> string -> Time.t -> unit
(** Accumulate a duration against a phase name.  Non-positive
    durations are ignored. *)

val read : clock -> (string * Time.t) list
(** Accumulated [(phase, total)] pairs, sorted by phase name. *)

val find : clock -> string -> Time.t
(** One phase's total; 0 if never charged. *)

val total : clock -> Time.t
(** Sum over all phases. *)

val merge_into : dst:clock -> clock -> unit
(** Add every phase of the source clock into [dst]. *)

val current : unit -> clock option
(** The calling process's installed clock, if any.  [None] when called
    outside a simulated process or when no clock is installed. *)

val charge_current : string -> Time.t -> unit
(** [charge clock phase d] on the current clock; no-op without one. *)

val with_clock : clock -> (unit -> 'a) -> 'a
(** Install a clock for the extent of the callback (restoring the
    previous one on exit, including on exceptions).  Inside a simulated
    process the slot keeps the clock across suspensions; outside one the
    callback runs with no clock installed. *)

(**/**)

val cell : clock option ref
(** The running process's clock; {!Engine.spawn} loads and saves it.
    Not for direct use. *)
