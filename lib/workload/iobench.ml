type kind = FSR | FSU | FSW | FRR | FRU

let kind_to_string = function
  | FSR -> "FSR"
  | FSU -> "FSU"
  | FSW -> "FSW"
  | FRR -> "FRR"
  | FRU -> "FRU"

type config = {
  path : string;
  file_mb : int;
  request_bytes : int;
  random_ops : int;
  seed : int;
}

let default_config =
  { path = "/iobench"; file_mb = 16; request_bytes = 8192; random_ops = 2048; seed = 42 }

type result = {
  kind : kind;
  bytes_moved : int;
  elapsed : Sim.Time.t;
  kb_per_sec : float;
  sys_cpu : Sim.Time.t;
}

(* Start a phase cold: drop the file's cached pages and predictor state,
   as if this were a fresh benchmark run on a warm system. *)
let reset_file_state (fs : Ufs.Types.fs) (ip : Ufs.Types.inode) =
  Ufs.Putpage.push_delayed fs ip ~sync:true ();
  Ufs.Io.wait_writes fs ip;
  Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
  Ufs.Rstream.reset ip.Ufs.Types.rs;
  ip.Ufs.Types.bmap_cache <- None

let measure (fs : Ufs.Types.fs) kind f =
  let engine = fs.Ufs.Types.engine in
  let t0 = Sim.Engine.now engine in
  let c0 = Sim.Cpu.sys_time fs.Ufs.Types.cpu in
  let bytes = f () in
  let elapsed = Sim.Engine.now engine - t0 in
  let sys_cpu = Sim.Cpu.sys_time fs.Ufs.Types.cpu - c0 in
  {
    kind;
    bytes_moved = bytes;
    elapsed;
    kb_per_sec =
      (if elapsed = 0 then 0.
       else float_of_int bytes /. 1024. /. Sim.Time.to_sec_float elapsed);
    sys_cpu;
  }

(* Write phases time the write(2) loop through a final fsync, so the
   asynchronous queue drains inside the measured window; the queue-depth
   effects the paper discusses (the elevator sorting an unthrottled
   random-update stream into near-sequential order) happen during the
   drain. *)
let seq_write fs ip cfg ~fill =
  let total = cfg.file_mb * 1024 * 1024 in
  let buf = Bytes.make cfg.request_bytes fill in
  let rec loop off =
    if off < total then begin
      Ufs.Fs.write fs ip ~off ~buf ~len:cfg.request_bytes;
      loop (off + cfg.request_bytes)
    end
  in
  loop 0;
  Ufs.Fs.fsync fs ip;
  total

let seq_read fs ip cfg =
  let total = cfg.file_mb * 1024 * 1024 in
  let buf = Bytes.create cfg.request_bytes in
  let rec loop off acc =
    if off < total then begin
      let n = Ufs.Fs.read fs ip ~off ~buf ~len:cfg.request_bytes in
      loop (off + cfg.request_bytes) (acc + n)
    end
    else acc
  in
  loop 0 0

let random_offsets cfg =
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let nblocks = cfg.file_mb * 1024 * 1024 / cfg.request_bytes in
  Array.init cfg.random_ops (fun _ ->
      Sim.Rng.int rng nblocks * cfg.request_bytes)

let random_read fs ip cfg =
  let buf = Bytes.create cfg.request_bytes in
  Array.fold_left
    (fun acc off -> acc + Ufs.Fs.read fs ip ~off ~buf ~len:cfg.request_bytes)
    0 (random_offsets cfg)

let random_update fs ip cfg =
  let buf = Bytes.make cfg.request_bytes 'u' in
  Array.iter
    (fun off -> Ufs.Fs.write fs ip ~off ~buf ~len:cfg.request_bytes)
    (random_offsets cfg);
  Ufs.Fs.fsync fs ip;
  cfg.random_ops * cfg.request_bytes

let with_file fs cfg ~create f =
  let ip =
    if create then Ufs.Fs.creat fs cfg.path else Ufs.Fs.namei fs cfg.path
  in
  Fun.protect
    ~finally:(fun () -> Ufs.Iops.iput fs ip)
    (fun () -> f ip)

let prepare fs cfg =
  with_file fs cfg ~create:true (fun ip ->
      ignore (seq_write fs ip cfg ~fill:'p');
      reset_file_state fs ip)

let run_phase fs cfg kind =
  match kind with
  | FSW ->
      (* fresh allocation: recreate the file *)
      with_file fs cfg ~create:true (fun ip ->
          measure fs FSW (fun () -> seq_write fs ip cfg ~fill:'w'))
  | FSU ->
      with_file fs cfg ~create:false (fun ip ->
          reset_file_state fs ip;
          measure fs FSU (fun () -> seq_write fs ip cfg ~fill:'u'))
  | FSR ->
      with_file fs cfg ~create:false (fun ip ->
          reset_file_state fs ip;
          measure fs FSR (fun () -> seq_read fs ip cfg))
  | FRR ->
      with_file fs cfg ~create:false (fun ip ->
          reset_file_state fs ip;
          measure fs FRR (fun () -> random_read fs ip cfg))
  | FRU ->
      with_file fs cfg ~create:false (fun ip ->
          reset_file_state fs ip;
          measure fs FRU (fun () -> random_update fs ip cfg))

let run_all fs cfg =
  List.map (run_phase fs cfg) [ FSW; FSU; FSR; FRR; FRU ]
