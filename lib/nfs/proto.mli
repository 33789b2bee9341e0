(** The wire protocol: an NFSv2-shaped stateless file service.

    File handles are server inode numbers.  READ replies and WRITE
    calls carry real bytes — the data a client reads back through the
    network is the data that lives in the server's UFS image, so
    content checks (the duplicate-apply property tests) are real.

    [call_size]/[msg_size] give the wire size of each message: a
    fixed RPC header plus the payload, which is what the {!Net} layer
    charges to the wire and to the sender's CPU. *)

type fh = int
(** Server inode number. *)

val root_fh : fh
(** The exported root directory (the server pins this mapping). *)

type attr = { size : int; is_dir : bool }

type call =
  | Lookup of { dir : fh; name : string }
  | Create of { dir : fh; name : string }
      (** creates or truncates, like creat(2) — deliberately
          non-idempotent so the duplicate-request cache is load-bearing *)
  | Getattr of { fh : fh }
  | Read of { fh : fh; off : int; len : int }
  | Write of { fh : fh; off : int; data : bytes }
  | Readdir of { fh : fh; cookie : int; count : int }
      (** one page of directory entries: up to [count] names starting
          at opaque position [cookie] (0 = from the top) *)

type reply =
  | R_fh of { fh : fh; attr : attr }  (** lookup / create *)
  | R_attr of attr  (** getattr / write *)
  | R_read of { data : bytes; eof : bool }
  | R_names of { names : string list; cookie : int; eof : bool }
      (** readdir page; resume from [cookie] unless [eof] *)
  | R_err of string  (** errno name *)

type msg =
  | Call of {
      xid : int;
      client : int;
      call : call;
      sent : Sim.Time.t;
      span : Sim.Span.ctx option;
    }
      (** [sent] is the transmit timestamp — legal out-of-band metadata
          in a simulation sharing one clock; the server uses it to
          compute outbound wire+queue time for cost attribution.
          [span] is the caller's tracing context ([None] when the call
          is untraced): the server parents its span subtree under it.
          Neither counts in {!msg_size}. *)
  | Reply of {
      xid : int;
      client : int;
      reply : reply;
      cost : (string * Sim.Time.t) list;
      spans : Sim.Span.t option;
    }
      (** [cost] is the server's per-phase breakdown of this call's
          life (["wire.out"], ["nfsd.queue"], ["disk.*"], ["nfsd.cpu"],
          plus the absolute ["srv.sent_at"] stamp so the client can
          compute inbound wire time).  [spans] is the server-side span
          subtree of a traced call, grafted back into the caller's
          trace on receipt.  Attribution metadata only — excluded from
          {!msg_size}, so wire timing is unchanged. *)

val call_size : call -> int
val msg_size : msg -> int

val op_name : call -> string
(** ["lookup" | "create" | "getattr" | "read" | "write" | "readdir"] —
    the metric key for per-op counters. *)

val op_names : string list
(** All op names, in a fixed order (metrics export). *)
