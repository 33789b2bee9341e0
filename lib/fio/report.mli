(** Rendering a run: per-job and aggregate IOPS, bandwidth, latency
    percentiles, and the per-layer cost-attribution table.

    The cost table answers "where did the simulated op time go".  The
    denominator is the sum of every op's issue-to-completion latency
    (plus each job's closing fsync); the charged phases are what the
    ops' {!Sim.Attrib} clocks accumulated while blocked in each layer;
    the remainder — time the op spent on its own CPU, copying through
    the client cache — is the ["client.cache"] row.  By construction
    the rows sum to exactly 100%. *)

type t = {
  spec : Spec.t;
  target : string;  (** ["local"] or ["remote"] *)
  jobs : Run.job_result list;
}

val make : Spec.t -> target:string -> Run.job_result list -> t

val wall_us : t -> Sim.Time.t
(** The slowest job's wall time (jobs start together). *)

val bandwidth_kbps : t -> float
(** Total bytes moved over the slowest job's wall time, KB/s. *)

val cost_rows : t -> (string * Sim.Time.t * float) list
(** [(phase, charged_us, percent)] rows, percent of the attribution
    denominator, descending by time, ["client.cache"] holding the
    uncharged remainder.  Percents sum to 100 (up to rounding). *)

val to_text : t -> string

val to_json : t -> string
(** Self-contained JSON document: spec string, target, per-job and
    aggregate iops/bandwidth/latency percentiles, cost table. *)

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register the run as a ["fio"] source: aggregate iops/bandwidth,
    per-job latency summaries (percentiles ride the Summary export)
    and per-phase cost percentages. *)
