(** Write-ahead intent log in a reserved region of a block device.

    The log is payload-agnostic: callers append opaque records into an
    open transaction and {!commit} makes the whole transaction durable
    with one sequential write into the region.  The region is circular:

    - the first sector holds a versioned, checksummed header with the
      durable {e head} (offset + sequence number of the oldest live
      entry); everything after it is the data area;
    - each committed transaction is one {e entry}: a checksummed header,
      the concatenated records, padding to sector granularity;
    - entries never straddle the region end — a wrap marker (or, when
      fewer than a header's worth of bytes remain, nothing at all)
      sends both writer and scanner back to offset zero.

    Recovery ({!scan_store}/{!scan_blkdev}) starts at the durable head
    and walks forward, validating magic, sequence number and checksums;
    the first invalid entry is the torn tail and scanning stops — a
    crash mid-commit loses at most the uncommitted transaction.  The
    scan reads only the log region, block at a time, so recovery cost
    is O(log size), never O(disk).

    {!checkpoint} durably advances the head past every committed entry.
    The caller must have applied (or be about to re-apply idempotently)
    those entries in place first: the contract is that any entry still
    live in the log can be redone safely at any time. *)

type t

exception Full of string
(** Raised by {!commit} when the open transaction does not fit in the
    free span of the region.  Callers are expected to watch
    {!free_bytes} and checkpoint before this can happen. *)

val header_reserved : int
(** Bytes reserved at the start of the region for the durable header. *)

val format : Disk.Store.t -> off_bytes:int -> len_bytes:int -> unit
(** Write a fresh (empty-log) header directly into the image — untimed,
    for mkfs and post-recovery reset. *)

val attach : Disk.Blkdev.t -> off_bytes:int -> len_bytes:int -> t
(** Open the log for appending: read the header, then scan forward from
    the head to locate the tail.  The scan is untimed (straight off the
    backing store): mount runs outside any simulated process, and on a
    cleanly unmounted image the log is empty anyway. *)

val reset_blkdev : Disk.Blkdev.t -> off_bytes:int -> len_bytes:int -> unit
(** Timed post-recovery reset: rewrite a fresh (empty-log) header and
    poison the first entry slot through the device, so the reset cost
    shows up in the recovery time like every other replay write. *)

val append : t -> bytes -> unit
(** Add a record to the open transaction (buffered in memory). *)

val pending : t -> bool
(** True when the open transaction holds at least one record. *)

val commit : t -> unit
(** Durably write the open transaction as one entry (timed, through the
    device).  No-op when nothing is pending. *)

val checkpoint : t -> unit
(** Durably advance the head past every committed entry (one header
    write).  Call only after the entries' effects are in place. *)

val free_bytes : t -> int
val capacity_bytes : t -> int

(** {1 Recovery-side scanning} *)

type report = {
  entries : int;  (** committed transactions redone *)
  records : int;
  payload_bytes : int;
  blocks_read : int;  (** 8 KB blocks fetched from the log region *)
  torn : bool;  (** a torn tail was discarded *)
  head_seq : int;  (** sequence number at the durable head *)
}

val scan_store :
  Disk.Store.t ->
  off_bytes:int ->
  len_bytes:int ->
  on_record:(bytes -> unit) ->
  report
(** Untimed scan straight off the image (tests, offline inspection). *)

val scan_blkdev :
  Disk.Blkdev.t ->
  off_bytes:int ->
  len_bytes:int ->
  on_record:(bytes -> unit) ->
  report
(** Timed scan through the device — the replay path whose cost the
    recovery bench measures.  Must run inside a simulation process. *)

(** {1 Observability} *)

type stats = {
  mutable commits : int;
  mutable commit_records : int;
  mutable log_bytes : int;  (** entry bytes written, padding included *)
  mutable wraps : int;
  mutable checkpoints : int;
}

val stats : t -> stats

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register commit/checkpoint counters and the live free-space gauge
    as a ["jrnl"] source. *)
