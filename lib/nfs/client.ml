let bsize = Ufs.Layout.bsize

type stats = {
  mutable read_calls : int;
  mutable write_calls : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable ra_issued : int;
  mutable ra_used : int;
  mutable ra_streams : int;  (** read-ahead windows created beyond the first *)
  mutable ra_wasted : int;  (** prefetched pages dropped before any use *)
  mutable write_gathers : int;
  mutable dirty_sleeps : int;
  mutable attr_hits : int;
  mutable attr_misses : int;
  mutable evictions : int;
  gather_bytes : Sim.Stats.Hist.t;
}

type cpage = {
  pdata : bytes;
  mutable pvalid : bool;
  mutable pdirty : bool;
  mutable pbusy : bool;  (** a fill RPC is in flight *)
  mutable pflush : int;  (** in-flight WRITE payloads covering this page *)
  mutable pprefetched : bool;
  pcond : Sim.Condition.t;  (** unbusy waiters *)
}

type file = {
  cl : t;
  fh : Proto.fh;
  mutable attr : Proto.attr;
  mutable attr_at : Sim.Time.t option;  (** [None] = stale *)
  mutable fsize : int;  (** client view: local writes extend it now *)
  pages : (int, cpage) Hashtbl.t;  (** block offset -> page *)
  rs : Ufs.Rstream.t;
      (** read clustering state: one window per sequential stream *)
  (* write gathering (client-side delayoff / delaylen) *)
  mutable delayoff : int;
  mutable delaylen : int;
  (* push bookkeeping *)
  mutable pending_pushes : int;
  mutable pushing : bool;  (** a WRITE RPC of this file is in flight *)
  push_cond : Sim.Condition.t;
}

and job =
  | Ra of file * int * int  (** read-ahead: file, offset, length *)
  | Push of file * int * int * bytes * cpage list
      (** write-behind: file, off, dirty credit, payload, covered pages *)

and t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  rpc : Rpc.t;
  cluster : int;
  ra_depth : int;
  dirty_limit : int;
  attr_ttl : Sim.Time.t;
  cache_pages : int;
  readdir_count : int;
  costs : Ufs.Costs.t;
  jobs : job Queue.t;
  work : Sim.Condition.t;
  mutable dirty_bytes : int;  (** dirty pages + in-flight WRITE payloads *)
  dirty_cond : Sim.Condition.t;
  lru : (file * int) Queue.t;  (** eviction candidates, oldest first *)
  mutable resident : int;
  files : (string, file) Hashtbl.t;
  st : stats;
}

let mk_stats () =
  {
    read_calls = 0;
    write_calls = 0;
    cache_hits = 0;
    cache_misses = 0;
    ra_issued = 0;
    ra_used = 0;
    ra_streams = 0;
    ra_wasted = 0;
    write_gathers = 0;
    dirty_sleeps = 0;
    attr_hits = 0;
    attr_misses = 0;
    evictions = 0;
    gather_bytes = Sim.Stats.Hist.create ();
  }

let charge t c = Sim.Cpu.charge t.cpu ~label:"nfs.client" c

(* run a blocking section and charge the caller's attribution clock
   (if any) with the time it actually spent blocked; a traced caller
   additionally gets the wait as a span interval *)
let charged t phase f =
  let before = Sim.Engine.now t.engine in
  f ();
  let after = Sim.Engine.now t.engine in
  Sim.Attrib.charge_current phase (after - before);
  if after > before then
    Sim.Span.interval ~name:phase ~start_us:before ~stop_us:after ()

(* ---------- page cache ---------- *)

(* Make room: pop eviction candidates until a valid, clean, idle page
   turns up.  Entries can be stale (the page was already dropped) and
   dirty/busy pages are skipped and re-queued, as are pages whose only
   up-to-date copy rides in a still-in-flight WRITE payload (pflush >
   0): dropping one of those and refetching would resurrect the
   server's pre-write data.  If one full sweep finds nothing evictable
   the cache is allowed to grow past the cap. *)
let evict_one t =
  let attempts = ref (Queue.length t.lru) in
  let evicted = ref false in
  while (not !evicted) && !attempts > 0 do
    decr attempts;
    let f, po = Queue.pop t.lru in
    match Hashtbl.find_opt f.pages po with
    | None -> ()  (* stale entry *)
    | Some p ->
        if p.pvalid && (not p.pdirty) && (not p.pbusy) && p.pflush = 0
        then begin
          (* read ahead but dropped before anybody read it: the RPC and
             the frame were spent for nothing *)
          if p.pprefetched then t.st.ra_wasted <- t.st.ra_wasted + 1;
          Hashtbl.remove f.pages po;
          t.resident <- t.resident - 1;
          t.st.evictions <- t.st.evictions + 1;
          evicted := true
        end
        else Queue.push (f, po) t.lru
  done

let insert_page t f po =
  if t.resident >= t.cache_pages then evict_one t;
  let p =
    {
      pdata = Bytes.create bsize;
      pvalid = false;
      pdirty = false;
      pbusy = false;
      pflush = 0;
      pprefetched = false;
      pcond = Sim.Condition.create t.engine "nfs.page";
    }
  in
  Hashtbl.replace f.pages po p;
  Queue.push (f, po) t.lru;
  t.resident <- t.resident + 1;
  p

(* Fetch [off, off+len) into the cache with one READ RPC, filling only
   the pages this call claimed (pages already valid or being filled by
   someone else are left alone).  Pages past the server's EOF are
   dropped again.  Runs in whatever process called it: the reader for
   a demand miss, a biod for read-ahead. *)
let fetch_range t f ~off ~len ~prefetched =
  let claims = ref [] in
  let po = ref off in
  while !po < off + len do
    (match Hashtbl.find_opt f.pages !po with
    | Some p when p.pvalid || p.pbusy -> ()
    | Some p ->
        p.pbusy <- true;
        claims := (!po, p) :: !claims
    | None ->
        let p = insert_page t f !po in
        p.pbusy <- true;
        claims := (!po, p) :: !claims);
    po := !po + bsize
  done;
  match List.rev !claims with
  | [] -> ()
  | claims ->
      let lo = List.fold_left (fun a (po, _) -> min a po) max_int claims in
      let hi = List.fold_left (fun a (po, _) -> max a (po + bsize)) 0 claims in
      let data, _eof =
        match Rpc.call t.rpc (Proto.Read { fh = f.fh; off = lo; len = hi - lo }) with
        | Proto.R_read { data; eof } -> (data, eof)
        | Proto.R_err e -> failwith ("nfs read: " ^ e)
        | _ -> assert false
      in
      let n = Bytes.length data in
      List.iter
        (fun (po, p) ->
          let k = po - lo in
          if k < n then begin
            let avail = min bsize (n - k) in
            Bytes.blit data k p.pdata 0 avail;
            if avail < bsize then
              Bytes.fill p.pdata avail (bsize - avail) '\000';
            p.pvalid <- true;
            p.pprefetched <- prefetched
          end
          else begin
            (* past server EOF: forget the placeholder *)
            Hashtbl.remove f.pages po;
            t.resident <- t.resident - 1
          end;
          p.pbusy <- false;
          Sim.Condition.broadcast p.pcond)
        claims

(* ---------- biod pool ---------- *)

let do_push t f ~credit ~pages ~call =
  (* WRITE pushes of one file are strictly serialized: with
     retransmission in play, two overlapping writes in flight could
     land in either order on the server.  Waiters resume FIFO, so the
     dispatch order (= write order) is preserved. *)
  while f.pushing do
    Sim.Condition.wait f.push_cond
  done;
  f.pushing <- true;
  (match Rpc.call t.rpc call with
  | Proto.R_attr _ -> ()
  | Proto.R_err e -> failwith ("nfs write: " ^ e)
  | _ -> assert false);
  f.pushing <- false;
  List.iter (fun p -> p.pflush <- p.pflush - 1) pages;
  t.dirty_bytes <- t.dirty_bytes - credit;
  f.pending_pushes <- f.pending_pushes - 1;
  Sim.Condition.broadcast t.dirty_cond;
  Sim.Condition.broadcast f.push_cond

(* Background biod work opens its own (unsampled) traces: read-ahead
   and write-behind are visible on the client's biod track without
   polluting the op-latency p99 the slow-op sampler watches. *)
let biod_track t = Printf.sprintf "client%d/biod" (Rpc.client_id t.rpc)

let biod t () =
  while true do
    while Queue.is_empty t.jobs do
      Sim.Condition.wait t.work
    done;
    match Queue.pop t.jobs with
    | Ra (f, off, len) ->
        Sim.Span.root ~name:"biod.ra" ~track:(biod_track t) ~sample:false
          ~attrs:[ ("off", Sim.Span.I off); ("len", Sim.Span.I len) ]
          (fun () -> fetch_range t f ~off ~len ~prefetched:true)
    | Push (f, off, credit, data, pages) ->
        Sim.Span.root ~name:"biod.push" ~track:(biod_track t) ~sample:false
          ~attrs:
            [ ("off", Sim.Span.I off); ("len", Sim.Span.I (Bytes.length data)) ]
          (fun () ->
            do_push t f ~credit ~pages
              ~call:(Proto.Write { fh = f.fh; off; data }))
  done

let enqueue t job =
  Queue.push job t.jobs;
  Sim.Condition.signal t.work

(* ---------- mount / namespace ---------- *)

let mount engine ~cpu ~rpc ?(biods = 4) ?(cluster_bytes = 120 * 1024)
    ?(ra_depth = 2) ?(dirty_limit = 240 * 1024)
    ?(attr_ttl = Sim.Time.sec 3) ?(cache_pages = 1024)
    ?(readdir_count = 32) ?(costs = Ufs.Costs.default) () =
  let t =
    {
      engine;
      cpu;
      rpc;
      cluster = cluster_bytes;
      ra_depth;
      dirty_limit;
      attr_ttl;
      cache_pages;
      readdir_count;
      costs;
      jobs = Queue.create ();
      work = Sim.Condition.create engine "biod.work";
      dirty_bytes = 0;
      dirty_cond = Sim.Condition.create engine "nfs.dirty";
      lru = Queue.create ();
      resident = 0;
      files = Hashtbl.create 16;
      st = mk_stats ();
    }
  in
  for i = 1 to biods do
    Sim.Engine.spawn engine ~name:(Printf.sprintf "biod.%d" i) (fun () ->
        biod t ())
  done;
  t

let engine t = t.engine
let cpu t = t.cpu

let mk_file t ~fh ~name ~(attr : Proto.attr) =
  let f =
    {
      cl = t;
      fh;
      attr;
      attr_at = Some (Sim.Engine.now t.engine);
      fsize = attr.Proto.size;
      pages = Hashtbl.create 64;
      rs = Ufs.Rstream.create ();
      delayoff = 0;
      delaylen = 0;
      pending_pushes = 0;
      pushing = false;
      push_cond = Sim.Condition.create t.engine ("push." ^ name);
    }
  in
  Hashtbl.replace t.files name f;
  f

(* NFS names are entries in the exported root directory; accept a
   "/name" spelling too so callers can't miss the server by passing the
   path form. *)
let basename name =
  if String.length name > 0 && name.[0] = '/' then
    String.sub name 1 (String.length name - 1)
  else name

let lookup t name =
  let name = basename name in
  charge t t.costs.Ufs.Costs.syscall;
  match Hashtbl.find_opt t.files name with
  | Some f -> Some f
  | None -> (
      match Rpc.call t.rpc (Proto.Lookup { dir = Proto.root_fh; name }) with
      | Proto.R_fh { fh; attr } -> Some (mk_file t ~fh ~name ~attr)
      | Proto.R_err _ -> None
      | _ -> assert false)

(* Page through the directory with the resume cookie; the caller sees
   one flat listing however many RPCs it took. *)
let readdir t =
  charge t t.costs.Ufs.Costs.syscall;
  let rec go cookie acc =
    match
      Rpc.call t.rpc
        (Proto.Readdir { fh = Proto.root_fh; cookie; count = t.readdir_count })
    with
    | Proto.R_names { names; cookie = next; eof } ->
        let acc = List.rev_append names acc in
        if eof then List.rev acc else go next acc
    | Proto.R_err e -> failwith ("nfs readdir: " ^ e)
    | _ -> assert false
  in
  go 0 []

(* ---------- attributes ---------- *)

let getattr f =
  let t = f.cl in
  let fresh =
    match f.attr_at with
    | Some ts -> Sim.Engine.now t.engine - ts <= t.attr_ttl
    | None -> false
  in
  if fresh then begin
    t.st.attr_hits <- t.st.attr_hits + 1;
    f.attr
  end
  else begin
    t.st.attr_misses <- t.st.attr_misses + 1;
    match Rpc.call t.rpc (Proto.Getattr { fh = f.fh }) with
    | Proto.R_attr a ->
        f.attr <- a;
        f.attr_at <- Some (Sim.Engine.now t.engine);
        (* dirty or in-flight local writes may be ahead of the server's
           size — never let a stale server attr shrink our view *)
        f.fsize <-
          (if f.pending_pushes > 0 || f.delaylen > 0 then
             max f.fsize a.Proto.size
           else a.Proto.size);
        a
    | Proto.R_err e -> failwith ("nfs getattr: " ^ e)
    | _ -> assert false
  end

let size f = f.fsize

(* ---------- read ---------- *)

(* Keep [ra_depth] clusters in flight beyond the stream's position.
   The frontier lives in the stream's own window, so each interleaved
   reader maintains its own pipeline — and a stream repointed by a
   backward seek starts a fresh frontier instead of inheriting one it
   can never catch. *)
let schedule_readahead t f (w : Ufs.Rstream.window) ~po =
  if w.ra_off < po + t.cluster then w.ra_off <- po + t.cluster;
  let window_end = po + ((t.ra_depth + 1) * t.cluster) in
  while w.ra_off < window_end && w.ra_off < f.fsize do
    let len = min t.cluster (f.fsize - w.ra_off) in
    t.st.ra_issued <- t.st.ra_issued + 1;
    enqueue t (Ra (f, w.ra_off, len));
    w.ra_off <- w.ra_off + t.cluster
  done

(* The page at [po], fetching on a miss: a whole cluster when the
   stream looks sequential, a single block when it doesn't.  [None]
   when the server's file ends before [po]. *)
let rec ensure_resident t f ~po ~seq ~retried =
  match Hashtbl.find_opt f.pages po with
  | Some p when p.pvalid ->
      if not retried then t.st.cache_hits <- t.st.cache_hits + 1;
      if p.pprefetched then begin
        t.st.ra_used <- t.st.ra_used + 1;
        p.pprefetched <- false
      end;
      Some p
  | Some p when p.pbusy ->
      charged t "rpc.wait" (fun () -> Sim.Condition.wait p.pcond);
      ensure_resident t f ~po ~seq ~retried
  | _ ->
      if retried then None
      else begin
        t.st.cache_misses <- t.st.cache_misses + 1;
        let len =
          if seq then min t.cluster (max bsize (f.fsize - po)) else bsize
        in
        fetch_range t f ~off:po ~len ~prefetched:false;
        ensure_resident t f ~po ~seq ~retried:true
      end

let read_body f ~off ~buf ~len =
  let t = f.cl in
  t.st.read_calls <- t.st.read_calls + 1;
  charge t t.costs.Ufs.Costs.syscall;
  ignore (getattr f);
  let total = ref 0 in
  let cur = ref off in
  let continue = ref true in
  while !continue && !total < len && !cur < f.fsize do
    let po = !cur - (!cur mod bsize) in
    let n = min (len - !total) (min (bsize - (!cur - po)) (f.fsize - !cur)) in
    if n <= 0 then continue := false
    else begin
      (* sequentiality judged before the windows advance, as in
         ufs_rdwr: did any stream predict this access? *)
      let w = Ufs.Rstream.find f.rs ~po ~cur:!cur in
      let seq = w <> None in
      charge t t.costs.Ufs.Costs.map_block;
      (match ensure_resident t f ~po ~seq ~retried:false with
      | None -> continue := false
      | Some p ->
          charge t (Ufs.Costs.copy_cost t.costs ~bytes:n);
          Bytes.blit p.pdata (!cur - po) buf !total n;
          (match w with
          | Some w ->
              Ufs.Rstream.touch f.rs w ~po;
              schedule_readahead t f w ~po
          | None ->
              if Ufs.Rstream.note_miss f.rs ~po then
                t.st.ra_streams <- t.st.ra_streams + 1
              else
                (* a repointed window restarts its frontier: read-ahead
                   must begin at the stream's new position, not at a
                   stale high-water mark it can never catch *)
                (Ufs.Rstream.mru f.rs).ra_off <- 0);
          total := !total + n;
          cur := !cur + n)
    end
  done;
  !total

let read f ~off ~buf ~len =
  Sim.Span.span ~name:"nfs.read"
    ~attrs:[ ("off", Sim.Span.I off); ("len", Sim.Span.I len) ]
    (fun () -> read_body f ~off ~buf ~len)

(* ---------- write ---------- *)

let flush_gather t f =
  if f.delaylen > 0 then begin
    (* the run is block-granular; the file may end mid-block *)
    let off = f.delayoff in
    let len = min f.delaylen (f.fsize - off) in
    f.delayoff <- 0;
    f.delaylen <- 0;
    let data = Bytes.create len in
    let pages = ref [] in
    let cleaned = ref 0 in
    let po = ref off in
    while !po < off + len do
      (match Hashtbl.find_opt f.pages !po with
      | Some p when p.pvalid ->
          let n = min bsize (off + len - !po) in
          Bytes.blit p.pdata 0 data (!po - off) n;
          (* the payload now owns the bytes: the page is clean but
             stays pinned (pflush) until the WRITE RPC completes, so
             eviction can't drop it and refetch stale server data *)
          p.pflush <- p.pflush + 1;
          pages := p :: !pages;
          if p.pdirty then begin
            p.pdirty <- false;
            incr cleaned
          end
      | _ -> assert false);
      po := !po + bsize
    done;
    f.pending_pushes <- f.pending_pushes + 1;
    t.st.write_gathers <- t.st.write_gathers + 1;
    Sim.Stats.Hist.add t.st.gather_bytes len;
    (* dirty_bytes moved bsize per page when it was dirtied, so credit
       bsize per page cleaned — crediting the truncated payload length
       would leak the tail of a run ending mid-block *)
    enqueue t (Push (f, off, !cleaned * bsize, data, !pages))
  end

(* The cached page a write into block [po] lands on.  Like
   [ensure_resident], it looks the page up again after every wait: a
   fill that finds its block past the server's EOF drops the page, and
   writing into that detached page would lose the data. *)
let rec writable_page t f ~po ~partial ~fetched =
  match Hashtbl.find_opt f.pages po with
  | Some p when p.pvalid -> p
  | Some p when p.pbusy ->
      (* a fill is in flight; wait it out rather than racing it *)
      charged t "rpc.wait" (fun () -> Sim.Condition.wait p.pcond);
      writable_page t f ~po ~partial ~fetched
  | _ when partial && po < f.fsize && not fetched ->
      (* read-modify-write of a block the server already has *)
      fetch_range t f ~off:po ~len:bsize ~prefetched:false;
      writable_page t f ~po ~partial ~fetched:true
  | _ ->
      let p = insert_page t f po in
      Bytes.fill p.pdata 0 bsize '\000';
      p.pvalid <- true;
      p

let write_body f ~off ~buf ~len =
  let t = f.cl in
  t.st.write_calls <- t.st.write_calls + 1;
  charge t t.costs.Ufs.Costs.syscall;
  let cur = ref off in
  let copied = ref 0 in
  while !copied < len do
    let po = !cur - (!cur mod bsize) in
    let n = min (len - !copied) (bsize - (!cur - po)) in
    (* dirty cap: the write-limit analogue.  Flushing the current run
       first guarantees in-flight bytes exist to wait on. *)
    while t.dirty_bytes >= t.dirty_limit do
      flush_gather t f;
      t.st.dirty_sleeps <- t.st.dirty_sleeps + 1;
      charged t "client.throttle" (fun () -> Sim.Condition.wait t.dirty_cond)
    done;
    let partial = not (!cur = po && n = bsize) in
    let page = writable_page t f ~po ~partial ~fetched:false in
    if not page.pdirty then begin
      page.pdirty <- true;
      t.dirty_bytes <- t.dirty_bytes + bsize
    end;
    charge t t.costs.Ufs.Costs.map_block;
    charge t (Ufs.Costs.copy_cost t.costs ~bytes:n);
    Bytes.blit buf !copied page.pdata (!cur - po) n;
    if !cur + n > f.fsize then f.fsize <- !cur + n;
    (* gather: extend the run while the stream stays contiguous *)
    if f.delaylen = 0 then begin
      f.delayoff <- po;
      f.delaylen <- bsize
    end
    else if po = f.delayoff + f.delaylen then f.delaylen <- f.delaylen + bsize
    else if po >= f.delayoff && po < f.delayoff + f.delaylen then ()
      (* rewrite inside the current run: already gathered *)
    else begin
      flush_gather t f;
      f.delayoff <- po;
      f.delaylen <- bsize
    end;
    if f.delaylen >= t.cluster then flush_gather t f;
    copied := !copied + n;
    cur := !cur + n
  done

let write f ~off ~buf ~len =
  Sim.Span.span ~name:"nfs.write"
    ~attrs:[ ("off", Sim.Span.I off); ("len", Sim.Span.I len) ]
    (fun () -> write_body f ~off ~buf ~len)

let fsync f =
  Sim.Span.span ~name:"nfs.fsync" (fun () ->
      let t = f.cl in
      flush_gather t f;
      charged t "rpc.wait" (fun () ->
          while f.pending_pushes > 0 do
            Sim.Condition.wait f.push_cond
          done))

(* Drop the whole cached image of [f] (truncation, invalidation),
   charging never-used read-ahead pages to the wasted count. *)
let drop_all_pages t f =
  Hashtbl.iter
    (fun _ p -> if p.pvalid && p.pprefetched then
        t.st.ra_wasted <- t.st.ra_wasted + 1)
    f.pages;
  let n = Hashtbl.length f.pages in
  Hashtbl.reset f.pages;
  t.resident <- t.resident - n

let create t name =
  let name = basename name in
  charge t t.costs.Ufs.Costs.syscall;
  (* Re-creating an open file: settle every outstanding WRITE first, or
     a queued push could race the CREATE and land after the truncation. *)
  (match Hashtbl.find_opt t.files name with
  | Some f -> fsync f
  | None -> ());
  match Rpc.call t.rpc (Proto.Create { dir = Proto.root_fh; name }) with
  | Proto.R_fh { fh; attr } -> (
      match Hashtbl.find_opt t.files name with
      | Some f ->
          (* creat truncates: drop the cached pages and predictor state *)
          drop_all_pages t f;
          Ufs.Rstream.reset f.rs;
          f.delayoff <- 0;
          f.delaylen <- 0;
          f.attr <- attr;
          f.attr_at <- Some (Sim.Engine.now t.engine);
          f.fsize <- attr.Proto.size;
          f
      | None -> mk_file t ~fh ~name ~attr)
  | Proto.R_err e -> failwith ("nfs create: " ^ e)
  | _ -> assert false

let invalidate f =
  let t = f.cl in
  fsync f;
  drop_all_pages t f;
  Ufs.Rstream.reset f.rs;
  f.delayoff <- 0;
  f.delaylen <- 0;
  f.attr_at <- None

let stats t = t.st

let register_metrics t reg ~instance =
  Sim.Metrics.register reg ~layer:"nfs" ~instance (fun () ->
      let rpc = Rpc.stats t.rpc in
      (* "rpc_" prefix: "read"/"write" RPC counts must not collide with
         the vnode-level read_calls/write_calls below — duplicate keys
         in one metrics object would make the export ambiguous *)
      let per_op =
        List.concat_map
          (fun op ->
            [
              ("rpc_" ^ op ^ "_calls", Sim.Metrics.Int (Rpc.op_calls t.rpc op));
              ("rpc_" ^ op ^ "_rtt_us", Sim.Metrics.Summary (Rpc.rtt_of t.rpc op));
            ])
          Proto.op_names
      in
      [
        ("read_calls", Sim.Metrics.Int t.st.read_calls);
        ("write_calls", Sim.Metrics.Int t.st.write_calls);
        ("cache_hits", Sim.Metrics.Int t.st.cache_hits);
        ("cache_misses", Sim.Metrics.Int t.st.cache_misses);
        ("ra_issued", Sim.Metrics.Int t.st.ra_issued);
        ("ra_used", Sim.Metrics.Int t.st.ra_used);
        ("ra_streams", Sim.Metrics.Int t.st.ra_streams);
        ("ra_wasted", Sim.Metrics.Int t.st.ra_wasted);
        ("write_gathers", Sim.Metrics.Int t.st.write_gathers);
        ("gather_bytes", Sim.Metrics.Hist t.st.gather_bytes);
        ("dirty_sleeps", Sim.Metrics.Int t.st.dirty_sleeps);
        ("attr_hits", Sim.Metrics.Int t.st.attr_hits);
        ("attr_misses", Sim.Metrics.Int t.st.attr_misses);
        ("evictions", Sim.Metrics.Int t.st.evictions);
        ("rpc_retransmits", Sim.Metrics.Int rpc.Rpc.retransmits);
        ("rpc_late_replies", Sim.Metrics.Int rpc.Rpc.late_replies);
        ("rpc_srtt_us", Sim.Metrics.Float (Rpc.srtt_us t.rpc));
        ("rpc_rto_us", Sim.Metrics.Float (Rpc.rto_us t.rpc));
        ("rpc_cwnd", Sim.Metrics.Float (Rpc.cwnd t.rpc));
        ("rpc_in_flight", Sim.Metrics.Int (Rpc.in_flight t.rpc));
        ("rpc_backoffs", Sim.Metrics.Int (Rpc.backoffs t.rpc));
        ("rpc_window_wait_us", Sim.Metrics.Summary (Rpc.window_wait_us t.rpc));
      ]
      @ per_op)
