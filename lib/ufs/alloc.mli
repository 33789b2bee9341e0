(** The FFS block/fragment/inode allocator.

    The paper changed {e nothing} here — its claim is that the existing
    FFS allocator, asked to place blocks contiguously (rotdelay 0),
    already does well enough that preallocation is unnecessary, because
    it "keeps a percentage of the disk (usually 10%) free at all times"
    and "may use any free block at any time as long as it keeps a
    certain percentage free".  This module reproduces that allocator so
    the claim can be measured (experiment E5):

    - {!blkpref} implements the placement policy: first block near the
      inode's group; successive blocks contiguous, with a
      [rotdelay]-derived gap inserted after every [maxcontig] blocks
      when rotdelay is non-zero; a move to a fresh cylinder group every
      [maxbpg] blocks so one file cannot squat on a whole group;
    - {!alloc_block}/{!alloc_frags} honour the preference exactly when
      possible, then scan the preferred group from its rotor, then
      rotate through the other groups;
    - the [minfree] reserve is enforced: data allocations fail with
      [ENOSPC] once free space would drop below it.

    All bitmap work happens on the in-memory groups under [alloc_lock]
    and charges {!Costs.t.alloc_block} CPU; groups are flushed to disk
    by [Fs.sync]/unmount (cg buffers were cached in the buffer cache in
    the real kernel, too). *)

val total_free_frags : Types.fs -> int

val rotdelay_gap_blocks : Types.fs -> int
(** Blocks of gap implied by [sb.rotdelay_ms]; 0 when rotdelay is 0. *)

val blkpref : Types.fs -> Types.inode -> lbn:int -> prev_frag:int -> int
(** Preferred fragment address for logical block [lbn], given the
    physical address of the previous logical block ([0] if none).
    Returns 0 for "no preference". *)

val alloc_block : Types.fs -> Types.inode -> pref:int -> int
(** Allocate a full block; returns its fragment address.
    Raises [ENOSPC] when the reserve would be violated. *)

val alloc_frags : Types.fs -> Types.inode -> pref:int -> nfrags:int -> int
(** Allocate [nfrags] (1..7) contiguous fragments inside one block,
    preferring to split partial blocks before breaking whole ones. *)

val extend_frags :
  Types.fs -> Types.inode -> frag:int -> old_n:int -> new_n:int -> bool
(** Try to grow a fragment run in place; true on success. *)

val free_block : Types.fs -> Types.inode option -> int -> unit
(** Free a full block by fragment address.  [inode] (when given) has its
    [blocks] count reduced. *)

val free_frags : Types.fs -> Types.inode option -> frag:int -> nfrags:int -> unit

val alloc_inode : Types.fs -> dir_hint:int -> kind:Dinode.kind -> int
(** Allocate an inode number.  Directories go to a group with
    above-average free inodes and few directories; files go to the
    group of their parent directory ([dir_hint] is the parent's inum). *)

val free_inode : Types.fs -> int -> unit

val check_counts : Types.fs -> (string * int * int) list
(** Compare incremental per-group counts against bitmap recounts;
    returns discrepancies as [(what, expected, actual)] — empty when
    consistent.  Used by property tests and fsck. *)
