(** One open benchmark file on either side of the wire: a local UFS
    file or a file behind an {!Nfs.Client} mount.

    Benchmarks are written once on top of this handle, so a local run
    and a remote run issue the identical request stream and a pair of
    them isolates the network hop.  Each target's rules live here and
    nowhere else:

    - opening: [creat]/[namei] locally, CREATE/LOOKUP remotely;
    - {!cold}: locally, push the file's delayed writes, drop its cached
      pages and reset its read-ahead state; remotely,
      {!Nfs.Client.invalidate} (the client cache only — a server's page
      cache is cooled by opening the file {e on the server} as a local
      target);
    - {!close}: [iput] locally; nothing remotely.

    All functions except {!engine} and {!cpu} must run inside a
    simulation process. *)

type target = Local of Ufs.Types.fs | Remote of Nfs.Client.t

type t

val open_ : target -> create:bool -> string -> t
(** [~create:true] creates the file, truncating an existing one;
    [~create:false] looks it up and fails if it does not exist.  Remote
    names are entries in the exported root (a leading ["/"] is
    stripped). *)

val read : t -> off:int -> buf:bytes -> len:int -> int
val write : t -> off:int -> buf:bytes -> len:int -> unit
val fsync : t -> unit

val cold : t -> unit
(** Start the next phase cold, as if it were a fresh benchmark run on a
    warm system.  A remote file must have no dirty pages ({!fsync}
    first). *)

val close : t -> unit

val engine : target -> Sim.Engine.t

val cpu : target -> Sim.Cpu.t
(** The CPU a phase is timed on: the local machine's, or the {e client}
    machine's for a remote target. *)
