(** Where a spec's ops land: a local UFS mount or an NFS client mount
    of a simulated topology, behind one closure-record interface so the
    runner is target-agnostic.

    Job [j] of a spec works on file [<spec.file>.<j>].  On a remote
    target, jobs are assigned to the topology's client mounts round
    robin ([j mod clients]) {e and}, on a multi-server fleet, to
    servers round robin ([j mod servers]), so one spec can load many
    client machines and every server.  A [share=1] spec instead puts
    its one file behind client 0's mount to whichever server the
    namespace hash ({!Clusterfs.Topology.shard}) assigns the path.

    Both targets open their files through {!Workload.Handle}, the
    handle IObench runs on, so "drop the caches the target controls"
    means the same {!Workload.Handle.cold} in both benchmarks.

    All functions must run inside a simulation process. *)

type file = {
  read : off:int -> buf:bytes -> len:int -> int;
  write : off:int -> buf:bytes -> len:int -> unit;
  fsync : unit -> unit;
}

type t = {
  kind : string;  (** ["local"] or ["remote"], for reports *)
  engine : Sim.Engine.t;
  prepare : job:int -> Spec.t -> file;
      (** Create the job's file; when the spec can read
          ({!Stream.needs_data}), also write its [size] bytes of
          deterministic content ({!Stream.fill}) and drop the caches
          the target controls, so the measured phase starts cold. *)
}

val local : Clusterfs.Machine.t -> t
val remote : Clusterfs.Topology.t -> t
