(** Canned workload scenarios and ready-made drivers.

    Three specs cover the corners two fixed recipes (IObench, MusBus)
    could not: small random OLTP I/O where clustering is irrelevant,
    big sequential backup streams where it is everything, and a 70/30
    mixed load in between.  Each runs against a local machine or an
    NFS topology; the write-gathering ablation expresses the
    carried-over experiment as a spec. *)

val db_oltp : Spec.t
(** 4 KB random 70/30 read/write mix, iodepth 4, two jobs. *)

val backup : Spec.t
(** 1 MB sequential read, one job streaming 16 MB. *)

val mixed : Spec.t
(** 8 KB sequential 70/30 mix, iodepth 2, two jobs. *)

val ilv_single : Spec.t
(** One 8 KB sequential reader with 20 ms mean think time (so the
    stream is latency-bound, not disk-bound): the baseline the
    interleaved pair is judged against. *)

val ilv_pair : Spec.t
(** Two 8 KB sequential readers interleaving over disjoint 4 MB halves
    of one shared file ([share=1 offset_increment=4m]), same think time
    as {!ilv_single}.  With per-stream read-ahead windows the pair's
    aggregate bandwidth approaches twice the single stream's. *)

val strided : Spec.t
(** 8 KB reads every 64 KB: sequentially predictable to a naive
    detector but touching one block in eight, so cluster read-ahead is
    mostly waste. *)

val all : Spec.t list
(** The canned scenarios, in the order above. *)

val run_local : ?config:Clusterfs.Config.t -> Spec.t -> Report.t
(** Build a machine (default {!Clusterfs.Config.config_a}), run the
    spec against its local UFS, report.  If a metrics sink is
    installed, the machine and the run register into it. *)

val run_remote :
  ?config:Clusterfs.Config.t ->
  ?clients:int ->
  ?servers:int ->
  ?topology:Clusterfs.Topology.kind ->
  ?ports_buffer:int ->
  Spec.t ->
  Report.t
(** Run the spec over NFS: a topology of [clients] (default 2) client
    nodes mounting [servers] (default 1) server machines (default
    config A), jobs round-robin across client mounts and servers (see
    {!Target.remote}).  [topology] picks the wiring (default
    point-to-point links) and [ports_buffer] sizes the switch's
    output-port buffers when it is {!Clusterfs.Topology.Switched}. *)

type gather_point = {
  clients : int;
  write_rpcs : int;  (** WRITE RPCs the server applied *)
  disk_writes : int;  (** write I/Os the server disk serviced *)
  blocks_per_disk_write : float;  (** 8 KB blocks per disk write *)
  gather_kb_mean : float;  (** mean client WRITE payload, KB *)
  elapsed : Sim.Time.t;
}

val write_gather : ?config:Clusterfs.Config.t -> clients:int -> unit -> gather_point
(** The server-side write-gathering ablation: [clients] nodes each
    write one file sequentially (8 KB ops, 2 MB per job) through their
    own mount, so cluster-sized WRITE RPCs from different files
    interleave at the server.  The point records how well the server's
    own write path (delayed writes + clustering) keeps the interleaved
    streams forming full-cluster disk writes. *)
