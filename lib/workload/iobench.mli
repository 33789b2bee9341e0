(** IObench: the paper's transfer-rate benchmark (Figures 9-11).

    Five I/O types, named as in the paper: first letter F(ile system),
    second S(equential)/R(andom), third R(ead)/W(rite)/U(pdate) — "the
    difference between write and update is that in the update case the
    file's blocks have already been allocated".

    Sequential phases stream the whole file in 8 KB requests; random
    phases issue a fixed number of 8 KB requests at uniformly random
    block-aligned offsets.  Writes and updates are timed through a final
    fsync so the asynchronous queue drains inside the measured window
    (and so config "D"'s deep elevator-sorted queue shows its FRU
    advantage, as in the paper).

    Every phase but FSW starts cold ({!Handle.cold}): the file's cached
    pages are invalidated and its read-ahead state reset, like a
    separate benchmark run.

    The phases are written once over a {!Handle.target}, so a run
    through an {!Nfs.Client} mount issues the identical request stream
    as a local run (same 8 KB requests, same seeded random offsets) and
    a remote/local pair isolates exactly the cost of the network hop
    and what the client-side clustering machinery (biod read-ahead,
    write-behind gathering) wins back.  Elapsed time and system CPU are
    measured on the {e client} side of the wire; remote write phases
    time through {!Nfs.Client.fsync}, so every WRITE RPC is acknowledged
    inside the measured window.  A remote phase cools only the client
    cache — cool the server's copy by running {!Handle.cold} on it as a
    local target.

    All functions must run inside a simulation process. *)

type kind = FSR | FSU | FSW | FRR | FRU

val kind_to_string : kind -> string

type config = {
  path : string;
  file_mb : int;  (** 16 MB against 8 MB of RAM in the paper's setup *)
  request_bytes : int;  (** 8192 *)
  random_ops : int;  (** requests per random phase *)
  seed : int;
}

val default_config : config

type result = {
  kind : kind;
  bytes_moved : int;
  elapsed : Sim.Time.t;
  kb_per_sec : float;
  sys_cpu : Sim.Time.t;  (** system CPU charged during the phase *)
}

val kb_per_sec : int -> Sim.Time.t -> float
(** [kb_per_sec bytes elapsed]: the rate every phase reports; 0 over an
    empty window. *)

val run_phase : Handle.target -> config -> kind -> result
(** Run one phase.  FSU/FSR/FRR/FRU require the file to exist (run FSW
    first, or call {!prepare}). *)

val prepare : Handle.target -> config -> unit
(** Create and fully write the benchmark file (untimed, fsynced), for
    running a single non-FSW phase in isolation. *)

val run_all : Handle.target -> config -> result list
(** FSW, FSU, FSR, FRR, FRU in an order that lets each phase reuse the
    allocation state the paper assumes. *)
