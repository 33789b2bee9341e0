type stats = {
  mutable reads : int;
  mutable read_misses : int;
  mutable writebacks : int;
}

type entry = { frag : int; data : bytes; mutable dirty : bool; mutable lru : int }

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  dev : Disk.Blkdev.t;
  costs : Costs.t;
  capacity : int;
  tbl : (int, entry) Hashtbl.t;
  lock : Sim.Mutex.t;
  mutable clock : int;
  mutable pending_ordered : int;
  ordered_done : Sim.Condition.t;
  mutable write_gate : (int -> (unit -> unit) -> bool) option;
  stats : stats;
}

let create ?(capacity = 64) engine cpu dev costs =
  if capacity <= 0 then invalid_arg "Metabuf.create: capacity";
  {
    engine;
    cpu;
    dev;
    costs;
    capacity;
    tbl = Hashtbl.create 128;
    lock = Sim.Mutex.create engine "metabuf";
    clock = 0;
    pending_ordered = 0;
    ordered_done = Sim.Condition.create engine "metabuf-ordered";
    write_gate = None;
    stats = { reads = 0; read_misses = 0; writebacks = 0 };
  }

let set_write_gate t gate = t.write_gate <- gate

let check_aligned frag =
  if frag mod Layout.fpb <> 0 then
    invalid_arg "Metabuf: fragment address not block-aligned"

let touch t e =
  t.clock <- t.clock + 1;
  e.lru <- t.clock

let do_write t (e : entry) =
  t.stats.writebacks <- t.stats.writebacks + 1;
  Sim.Cpu.charge t.cpu ~label:"meta-io" (t.costs.Costs.driver_submit + t.costs.Costs.intr);
  Disk.Blkdev.write_sync t.dev
    ~sector:(Layout.frag_to_sector e.frag)
    ~count:(Layout.bsize / Layout.sector_bytes)
    ~buf:e.data ~buf_off:0;
  e.dirty <- false

(* Write-ahead gate: a journalled mount interposes here so no metadata
   block reaches its in-place location before the log records covering
   its content are durable.  A [false] return means the block carries an
   open operation's mutations and must stay dirty in the cache. *)
let write_out t (e : entry) =
  match t.write_gate with
  | None ->
      do_write t e;
      true
  | Some gate -> gate e.frag (fun () -> do_write t e)

let evict_if_full t =
  if Hashtbl.length t.tbl >= t.capacity then begin
    let victim =
      match t.write_gate with
      | None ->
          Hashtbl.fold
            (fun _ e acc ->
              match acc with
              | None -> Some e
              | Some b -> if e.lru < b.lru then Some e else acc)
            t.tbl None
      | Some _ ->
          (* journalled: prefer the oldest *clean* victim, so eviction
             rarely forces a log commit; fall back to the oldest dirty
             block only when everything is dirty *)
          let best =
            Hashtbl.fold
              (fun _ e acc ->
                match acc with
                | None -> Some e
                | Some b ->
                    if e.dirty = b.dirty then
                      if e.lru < b.lru then Some e else acc
                    else if b.dirty && not e.dirty then Some e
                    else acc)
              t.tbl None
          in
          best
    in
    match victim with
    | None -> ()
    | Some e ->
        if e.dirty then begin
          (* a refused write (open-op content) leaves the block in the
             cache; capacity is exceeded until the op ends *)
          if write_out t e then Hashtbl.remove t.tbl e.frag
        end
        else Hashtbl.remove t.tbl e.frag
  end

let read t ~frag =
  check_aligned frag;
  Sim.Mutex.with_lock t.lock (fun () ->
      t.stats.reads <- t.stats.reads + 1;
      match Hashtbl.find_opt t.tbl frag with
      | Some e ->
          touch t e;
          e.data
      | None ->
          t.stats.read_misses <- t.stats.read_misses + 1;
          evict_if_full t;
          let data = Bytes.make Layout.bsize '\000' in
          Sim.Cpu.charge t.cpu ~label:"meta-io"
            (t.costs.Costs.driver_submit + t.costs.Costs.intr);
          Disk.Blkdev.read_sync t.dev
            ~sector:(Layout.frag_to_sector frag)
            ~count:(Layout.bsize / Layout.sector_bytes)
            ~buf:data ~buf_off:0;
          let e = { frag; data; dirty = false; lru = 0 } in
          touch t e;
          Hashtbl.replace t.tbl frag e;
          e.data)

let zero t ~frag =
  check_aligned frag;
  Sim.Mutex.with_lock t.lock (fun () ->
      (match Hashtbl.find_opt t.tbl frag with
      | Some _ -> Hashtbl.remove t.tbl frag
      | None -> evict_if_full t);
      let data = Bytes.make Layout.bsize '\000' in
      let e = { frag; data; dirty = true; lru = 0 } in
      touch t e;
      Hashtbl.replace t.tbl frag e;
      e.data)

let mark_dirty t ~frag =
  check_aligned frag;
  match Hashtbl.find_opt t.tbl frag with
  | Some e -> e.dirty <- true
  | None -> invalid_arg "Metabuf.mark_dirty: block not resident"

let flush_block t ~frag =
  check_aligned frag;
  Sim.Mutex.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.tbl frag with
      | Some e when e.dirty -> ignore (write_out t e)
      | Some _ | None -> ())

(* Asynchronous ordered write-back: snapshot the block, submit with
   B_ORDER, return.  The entry is marked clean now; a later dirtying
   issues another ordered write behind this one, preserving order. *)
let flush_block_ordered t ~frag =
  check_aligned frag;
  match Hashtbl.find_opt t.tbl frag with
  | Some e when e.dirty ->
      t.stats.writebacks <- t.stats.writebacks + 1;
      Sim.Cpu.charge t.cpu ~label:"meta-io"
        (t.costs.Costs.driver_submit + t.costs.Costs.intr);
      e.dirty <- false;
      let buf = Bytes.copy e.data in
      let req =
        Disk.Request.make ~ordered:true ~kind:Disk.Request.Write
          ~sector:(Layout.frag_to_sector frag)
          ~count:(Layout.bsize / Layout.sector_bytes)
          ~buf ~buf_off:0 ()
      in
      t.pending_ordered <- t.pending_ordered + 1;
      Disk.Request.on_complete req (fun () ->
          t.pending_ordered <- t.pending_ordered - 1;
          if t.pending_ordered = 0 then Sim.Condition.broadcast t.ordered_done);
      Disk.Blkdev.submit t.dev req
  | Some _ | None -> ()

let invalidate t ~frag =
  check_aligned frag;
  Sim.Mutex.with_lock t.lock (fun () -> Hashtbl.remove t.tbl frag)

let sync t =
  Sim.Mutex.with_lock t.lock (fun () ->
      let dirty =
        Hashtbl.fold (fun _ e acc -> if e.dirty then e :: acc else acc) t.tbl []
        |> List.sort (fun a b -> compare a.frag b.frag)
      in
      (* refused blocks (open-op content) simply stay dirty; the
         checkpoint path quiesces operations before calling sync *)
      List.iter (fun e -> ignore (write_out t e)) dirty);
  while t.pending_ordered > 0 do
    Sim.Condition.wait t.ordered_done
  done

let stats t = t.stats
