(* Per-stream read-window table (adaptive readahead v2).

   The paper keeps one nextr/nextrio pair per file, so two interleaved
   sequential readers destroy each other's hint on every access.  Here
   a file carries a small LRU table of access windows instead; the
   rules are chosen so that a single reader (and the random-access
   workloads of figure 10) behaves byte-identically to the single-pair
   original:

   - the table starts as one window predicting offset 0 with its
     read-ahead frontier at 0, exactly the paper's initial state;
   - an access matching no window repoints the (unique) never-hit
     "scratch" window, mutating precisely the state the single pair
     would have mutated — its frontier is left alone, as the paper
     leaves nextrio alone on a miss;
   - only when the scratch has started matching (it is some stream's
     window now) does a miss open a NEW window, which is what preserves
     the established streams;
   - windows that never reach two hits are dropped after a few more
     misses, so accidental matches in random workloads cannot
     accumulate stale predictors.

   The table is shared by the UFS read path and the NFS client, so it
   knows nothing of either: every scan below is a closure-free loop,
   because these run on every block a reader touches. *)

type window = {
  mutable nextr : int;
  mutable ra_off : int;
  mutable hits : int;
  mutable born : int;
  mutable stamp : int;
  mutable cbs : int;
  mutable waste_mark : int;
}

type t = {
  mutable windows : window list;
  mutable clock : int;
  mutable misses : int;
}

let max_windows = 8
let miss_ttl = 4

let mk_window ~nextr ~ra_off ~born ~stamp =
  { nextr; ra_off; hits = 0; born; stamp; cbs = max_int; waste_mark = -1 }

let initial () = mk_window ~nextr:0 ~ra_off:0 ~born:0 ~stamp:0
let create () = { windows = [ initial () ]; clock = 0; misses = 0 }

let reset t =
  t.clock <- 0;
  t.misses <- 0;
  t.windows <- [ initial () ]

let bump t =
  t.clock <- t.clock + 1;
  t.clock

(* Stamps are unique (one clock tick each), so every "latest" below
   has exactly one answer and list order never breaks a tie. *)
let rec latest b = function
  | [] -> b
  | w :: rest -> latest (if w.stamp > b.stamp then w else b) rest

let mru t =
  match t.windows with
  | w :: rest -> latest w rest
  | [] -> invalid_arg "Rstream.mru: empty table"

(* ---------- find ---------- *)

(* The access at file offset [cur] inside block [po] rides window [w]:
   it starts the block [w] predicted, or continues inside the block [w]
   just advanced past. *)
let predicts w ~po ~cur =
  w.nextr = po || (cur > po && w.nextr = po + Layout.bsize)

(* established windows first, then the most recent *)
let outranks w b = w.hits > b.hits || (w.hits = b.hits && w.stamp > b.stamp)

let rec best_predicting b ~po ~cur = function
  | [] -> b
  | w :: rest ->
      let b = if predicts w ~po ~cur && outranks w b then w else b in
      best_predicting b ~po ~cur rest

let rec find_in ~po ~cur = function
  | [] -> None
  | w :: rest ->
      if predicts w ~po ~cur then Some (best_predicting w ~po ~cur rest)
      else find_in ~po ~cur rest

let find t ~po ~cur = find_in ~po ~cur t.windows

let rec latest_at b ~po = function
  | [] -> b
  | w :: rest ->
      latest_at (if w.ra_off = po && w.stamp > b.stamp then w else b) ~po rest

let rec find_ra_in ~po = function
  | [] -> None
  | w :: rest ->
      if w.ra_off = po then Some (latest_at w ~po rest) else find_ra_in ~po rest

let find_ra t ~po = find_ra_in ~po t.windows

(* ---------- update ---------- *)

let touch t w ~po =
  w.hits <- w.hits + 1;
  w.stamp <- bump t;
  w.born <- t.misses;
  w.nextr <- po + Layout.bsize

let rec renew_in ~born ~next = function
  | [] -> false
  | w :: rest ->
      if w.nextr = next then begin
        w.born <- born;
        true
      end
      else renew_in ~born ~next rest

let renew t ~po = renew_in ~born:t.misses ~next:(po + Layout.bsize) t.windows

(* Drop unestablished windows older than the TTL, sharing the tail
   (and allocating nothing) when none goes. *)
let rec prune misses = function
  | [] -> []
  | w :: rest as l ->
      let rest' = prune misses rest in
      if w.hits >= 2 || misses - w.born <= miss_ttl then
        if rest' == rest then l else w :: rest'
      else rest'

let rec latest_unhit b = function
  | [] -> b
  | w :: rest ->
      latest_unhit (if w.hits = 0 && w.stamp > b.stamp then w else b) rest

(* Repoint the most recent never-hit window at [po]'s successor, as the
   paper repoints its single nextr; its frontier stays, as the paper
   leaves nextrio.  [false] when every window has been hit. *)
let rec repoint_scratch t ~po = function
  | [] -> false
  | w :: rest ->
      if w.hits = 0 then begin
        let s = latest_unhit w rest in
        s.nextr <- po + Layout.bsize;
        s.born <- t.misses;
        s.stamp <- bump t;
        true
      end
      else repoint_scratch t ~po rest

let rec earliest b = function
  | [] -> b
  | w :: rest -> earliest (if w.stamp < b.stamp then w else b) rest

let rec remove x = function
  | [] -> []
  | w :: rest -> if w == x then rest else w :: remove x rest

let evict_lru t =
  match t.windows with
  | w :: rest -> t.windows <- remove (earliest w rest) t.windows
  | [] -> ()

let note_miss t ~po =
  t.misses <- t.misses + 1;
  t.windows <- prune t.misses t.windows;
  if repoint_scratch t ~po t.windows then false
  else begin
    if List.length t.windows >= max_windows then evict_lru t;
    let w =
      mk_window ~nextr:(po + Layout.bsize) ~ra_off:(-1) ~born:t.misses
        ~stamp:(bump t)
    in
    t.windows <- w :: t.windows;
    true
  end

(* ---------- cluster sizing ---------- *)

let cbs_blocks ~cluster w = max 1 (min w.cbs cluster / Layout.bsize)

let adapt ~wasted ~cluster w =
  if w.waste_mark < 0 then begin
    w.waste_mark <- wasted;
    false
  end
  else if wasted > w.waste_mark then begin
    w.cbs <- max Layout.bsize (min w.cbs cluster / 2);
    w.waste_mark <- wasted;
    true
  end
  else begin
    if w.cbs < cluster then w.cbs <- min cluster (w.cbs * 2);
    false
  end
