(** Per-stream read windows (adaptive readahead v2).

    The paper's single nextr/nextrio pair per file collapses the moment
    two sequential readers interleave.  A {!t} is the small per-file LRU
    table of {!window}s that replaces it, with rules arranged so a
    single reader — and the random workloads of figure 10 — behave
    exactly as the single pair did.

    The table is pure policy over byte offsets: it knows only
    {!Layout.bsize}, and both the UFS read path ([Getpage], [Rdwr]) and
    the NFS client keep one per file.  It owns the windows, the stamp
    clock, the miss count, the prediction and frontier lookups, the
    miss rules (prune, scratch repoint, LRU eviction, open) and the
    cluster sizing arithmetic.  Each caller keeps its own rules at its
    call site:
    - UFS boots a window's frontier on its second hit (under
      clustering), tries {!renew} before {!note_miss}, and counts
      [ra_streams], [ra_stream_hits] and [ra_shrinks];
    - the NFS client restarts the frontier of a repointed window (the
      backward-seek fix) and counts [ra_streams]. *)

type window = {
  mutable nextr : int;  (** predicted next block offset, bytes *)
  mutable ra_off : int;
      (** read-ahead frontier (the paper's nextrio), bytes; a new
          window opens at -1, "no frontier yet" *)
  mutable hits : int;  (** prediction matches *)
  mutable born : int;  (** miss count at creation/refresh, for the TTL *)
  mutable stamp : int;  (** clock stamp of the last use, for LRU *)
  mutable cbs : int;
      (** adaptive cluster-size cap in bytes; [max_int] = uncapped *)
  mutable waste_mark : int;
      (** wasted-prefetch count at the last sizing decision; -1 = not
          yet sampled *)
}

type t = private {
  mutable windows : window list;
      (** at most {!max_windows}, never empty, newest opened first *)
  mutable clock : int;  (** stamp source, one tick per use *)
  mutable misses : int;  (** accesses that repointed or opened a window *)
}

val max_windows : int
(** Table capacity (8). *)

val miss_ttl : int
(** A window with fewer than two hits is dropped once this many misses
    (4) have passed since its creation or refresh. *)

val create : unit -> t
(** One window predicting offset 0 with its frontier at 0 — the paper's
    "nextr is set to zero" initial state. *)

val reset : t -> unit
(** Back to the {!create} state, in place. *)

val mru : t -> window
(** The most recently stamped window. *)

val find : t -> po:int -> cur:int -> window option
(** The window the access at file offset [cur] inside the block at [po]
    rides: one whose [nextr] is [po], or, when [cur > po], one that
    already advanced past [po] to [po + bsize].  Prefers more hits, then
    the most recent.  Pass [~cur:po] for a block-aligned access. *)

val find_ra : t -> po:int -> window option
(** The most recent window whose frontier sits at [po] — the per-stream
    form of the paper's [po = nextrio] trigger. *)

val touch : t -> window -> po:int -> unit
(** The access at [po] matched [w]: count the hit, stamp it MRU, refresh
    its TTL and predict the next block. *)

val renew : t -> po:int -> bool
(** A re-access of block [po] that some window already advanced past:
    refresh that window's TTL and report [true]; hits, stamps, clock and
    miss count stay as they are.  [false] when no window sits at
    [po + bsize]. *)

val note_miss : t -> po:int -> bool
(** The access at [po] matched no window: count a miss, drop stale
    unestablished windows, then repoint the most recent never-hit
    window at [po + bsize] (its frontier untouched) and return [false];
    or, when every window has been hit, evict the LRU window at the cap,
    open a new one (frontier -1) and return [true].  Either way the
    window acted on is {!mru} afterwards. *)

val cbs_blocks : cluster:int -> window -> int
(** The window's cluster size in blocks (>= 1): its adaptive cap
    bounded by [cluster] bytes. *)

val adapt : wasted:int -> cluster:int -> window -> bool
(** Feedback sizing at a frontier firing, given the running count of
    wasted prefetches: halve the window's cluster size when [wasted]
    rose since its last decision (returns [true]), otherwise double it
    back up to [cluster] bytes.  The first call only samples. *)
