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

let kb_per_sec bytes elapsed =
  if elapsed = 0 then 0.
  else float_of_int bytes /. 1024. /. Sim.Time.to_sec_float elapsed

let measure target kind f =
  let engine = Handle.engine target and cpu = Handle.cpu target in
  let t0 = Sim.Engine.now engine in
  let c0 = Sim.Cpu.sys_time cpu in
  let bytes = f () in
  let elapsed = Sim.Engine.now engine - t0 in
  let sys_cpu = Sim.Cpu.sys_time cpu - c0 in
  {
    kind;
    bytes_moved = bytes;
    elapsed;
    kb_per_sec = kb_per_sec bytes elapsed;
    sys_cpu;
  }

(* Write phases time the write(2) loop through a final fsync, so the
   asynchronous queue drains inside the measured window; the queue-depth
   effects the paper discusses (the elevator sorting an unthrottled
   random-update stream into near-sequential order) happen during the
   drain. *)
let seq_write h cfg ~fill =
  let total = cfg.file_mb * 1024 * 1024 in
  let buf = Bytes.make cfg.request_bytes fill in
  let rec loop off =
    if off < total then begin
      Handle.write h ~off ~buf ~len:cfg.request_bytes;
      loop (off + cfg.request_bytes)
    end
  in
  loop 0;
  Handle.fsync h;
  total

let seq_read h cfg =
  let total = cfg.file_mb * 1024 * 1024 in
  let buf = Bytes.create cfg.request_bytes in
  let rec loop off acc =
    if off < total then begin
      let n = Handle.read h ~off ~buf ~len:cfg.request_bytes in
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

let random_read h cfg =
  let buf = Bytes.create cfg.request_bytes in
  Array.fold_left
    (fun acc off -> acc + Handle.read h ~off ~buf ~len:cfg.request_bytes)
    0 (random_offsets cfg)

let random_update h cfg =
  let buf = Bytes.make cfg.request_bytes 'u' in
  Array.iter
    (fun off -> Handle.write h ~off ~buf ~len:cfg.request_bytes)
    (random_offsets cfg);
  Handle.fsync h;
  cfg.random_ops * cfg.request_bytes

let with_file target cfg ~create f =
  let h = Handle.open_ target ~create cfg.path in
  Fun.protect ~finally:(fun () -> Handle.close h) (fun () -> f h)

let prepare target cfg =
  with_file target cfg ~create:true (fun h ->
      ignore (seq_write h cfg ~fill:'p');
      Handle.cold h)

(* FSW recreates the file (fresh allocation); every other phase reopens
   it and starts cold *)
let run_phase target cfg kind =
  with_file target cfg ~create:(kind = FSW) (fun h ->
      if kind <> FSW then Handle.cold h;
      measure target kind (fun () ->
          match kind with
          | FSW -> seq_write h cfg ~fill:'w'
          | FSU -> seq_write h cfg ~fill:'u'
          | FSR -> seq_read h cfg
          | FRR -> random_read h cfg
          | FRU -> random_update h cfg))

let run_all target cfg =
  List.map (run_phase target cfg) [ FSW; FSU; FSR; FRR; FRU ]
