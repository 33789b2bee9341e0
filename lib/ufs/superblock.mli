(** The superblock: file-system-wide geometry, tuning knobs and summary
    counts.

    The two tuning parameters at the heart of the paper live here, just
    as they do in FFS (settable by tunefs without reformatting — the
    "on-disk format remains the same" constraint):

    - [rotdelay_ms]: the inter-block gap the allocator leaves for
      non-clustered operation ("the minimum non-zero value is the
      rotational delay of one block time... typically 4 ms");
    - [maxcontig]: blocks laid out contiguously between gaps —
      re-purposed by the paper as the desired {e cluster} size
      ("previously, when rotdelay was zero, maxcontig had no meaning,
      but now it always indicates cluster size").

    Summary counts ([nbfree] etc.) are mirrored from the cylinder groups
    and checked by fsck. *)

type t = {
  magic : int;
  nfrags : int;  (** total fragments on the device *)
  ncg : int;
  fpg : int;  (** fragments per cylinder group *)
  ipg : int;  (** inodes per cylinder group *)
  minfree_pct : int;  (** reserve kept free (10% in the paper) *)
  mutable rotdelay_ms : int;
  mutable maxcontig : int;
  mutable maxbpg : int;
      (** max blocks a single file may claim in one cylinder group
          before the allocator moves it to another *)
  mutable nbfree : int;  (** free whole blocks, fs-wide *)
  mutable nffree : int;  (** free fragments outside free blocks *)
  mutable nifree : int;
  mutable ndir : int;
  mutable clean : bool;
  mutable jstart : int;
      (** first fragment of the intent-journal region; 0 = no journal *)
  mutable jfrags : int;  (** journal region length in fragments *)
}

val create :
  nfrags:int ->
  ncg:int ->
  fpg:int ->
  ipg:int ->
  ?minfree_pct:int ->
  ?rotdelay_ms:int ->
  ?maxcontig:int ->
  ?maxbpg:int ->
  ?jstart:int ->
  ?jfrags:int ->
  unit ->
  t
(** Fresh superblock with zeroed summary counts (mkfs fills them as it
    builds the groups).  Defaults: minfree 10, rotdelay 4 ms, maxcontig
    1, maxbpg 256, no journal. *)

val encode : t -> bytes
(** One [Layout.bsize] block. *)

val decode : bytes -> t
(** Raises [Vfs.Errno.Error EINVAL] on a bad magic number. *)

val data_frags : t -> int
(** Total fragments usable for data (excludes per-group metadata and
    the boot/superblock area). *)

val minfree_frags : t -> int
(** The allocator refuses to go below this many free fragments. *)

val cg_of_frag : t -> int -> int
val cg_of_inum : t -> int -> int
val pp : Format.formatter -> t -> unit
