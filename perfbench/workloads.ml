(* The three benchmark workloads.  Each is closed loop: every lane
   issues its next op when the previous one completes, no think time.
   Sizes are drawn from the seed, so two seeds give two slightly
   different inputs and one seed always gives the same one. *)

open Clusterfs

type setup = {
  engine : Sim.Engine.t;
  registry : Sim.Metrics.t;  (* every layer of every machine *)
  machines : int;  (* modeled machines, servers and clients *)
  images : Machine.t list;  (* machines holding the file systems *)
  drive : (unit -> unit) -> unit;
      (* run [f] as a simulation process and drive the engine until
         everything it started has completed *)
  target : Fio.Target.t;
  topology : Topology.t option;
}

type plan = {
  specs : Fio.Spec.t list;  (* run concurrently, each by Fio.Run *)
  meta_files : int;  (* small files the namespace job churns; 0 = none *)
  create : unit -> setup;
}

(* A run pools [variants] inputs drawn from its seed.  One input's
   tail latency swings with how its streams happen to interleave (the
   readers against the writer's flushes, the clients against lost
   frames); the pooled tail of several inputs does not.  Each workload
   pools as many as its tail needs to settle. *)
type t = {
  name : string;
  why : string;
  variants : int;
  plan : seed:int -> plan;
}

let mb = 1024 * 1024

let spec fmt =
  Printf.ksprintf
    (fun s ->
      match Fio.Spec.parse s with Ok s -> s | Error e -> failwith ("spec: " ^ e))
    fmt

let local config () =
  let registry = Sim.Metrics.create () in
  let m = Machine.with_metrics_sink registry (fun () -> Machine.create config) in
  {
    engine = m.Machine.engine;
    registry;
    machines = 1;
    images = [ m ];
    drive = (fun f -> Machine.run m (fun _ -> f ()));
    target = Fio.Target.local m;
    topology = None;
  }

(* 8 MB of physical memory: every data set below is at least ten times
   that, so the page cache cannot hold the working set. *)
let local_stream ~seed =
  let rng = Sim.Rng.create ~seed in
  let half = (40 * mb) + (Sim.Rng.int rng 64 * 8192) in
  let wsize = (16 * mb) + (Sim.Rng.int rng 64 * 8192) in
  {
    specs =
      [
        spec
          "name=readers file=shared rw=read bs=8k size=%d numjobs=2 share=1 \
           offset_increment=%d seed=%d"
          half half seed;
        spec "name=writer file=new rw=write bs=8k size=%d seed=%d" wsize seed;
      ];
    meta_files = 0;
    create = local Config.config_a;
  }

let local_random ~seed =
  let rng = Sim.Rng.create ~seed in
  let size = (40 * mb) + (Sim.Rng.int rng 64 * 8192) in
  {
    specs =
      [
        spec
          "name=oltp file=rand rw=randrw rwmixread=70 bs=8k size=%d iodepth=4 \
           numjobs=2 seed=%d"
          size seed;
      ];
    meta_files = 400 + Sim.Rng.int rng 100;
    create = local (Config.with_journal Config.config_a);
  }

let fleet_servers = 4
let fleet_clients = 64

let nfs_fleet ~seed =
  let rng = Sim.Rng.create ~seed in
  let size = mb + (Sim.Rng.int rng 8 * 8192) in
  let create () =
    let registry = Sim.Metrics.create () in
    let topo =
      Machine.with_metrics_sink registry (fun () ->
          Topology.create
            ~net:(Net.lossy Net.default_config 0.01)
            ~seed ~topology:Topology.Switched ~transport:Nfs.Rpc.Adaptive
            ~servers:fleet_servers ~clients:fleet_clients Config.config_a)
    in
    {
      engine = Topology.engine topo;
      registry;
      machines = fleet_servers + fleet_clients;
      images = Array.to_list topo.Topology.servers;
      drive = (fun f -> Topology.run topo (fun _ -> f ()));
      target = Fio.Target.remote topo;
      topology = Some topo;
    }
  in
  {
    specs =
      [
        spec
          "name=client file=priv rw=rw rwmixread=70 bs=8k size=%d iodepth=2 \
           numjobs=%d seed=%d"
          size fleet_clients seed;
      ];
    meta_files = 0;
    create;
  }

let all =
  [
    {
      name = "local-stream";
      why =
        "Two interleaved 8 KB sequential readers and a writer on one 8 MB \
         machine: read-ahead, klustering, free-behind and the write limit \
         carry it; NFS and net idle.";
      variants = 16;
      plan = local_stream;
    };
    {
      name = "local-random";
      why =
        "Random 70/30 8 KB I/O plus create/write/unlink on a journaled \
         machine: clustering bypassed, so disksort, bmap, VM eviction and \
         the journal carry the load.";
      variants = 2;
      plan = local_random;
    };
    {
      name = "nfs-fleet";
      why =
        "64 clients x 4 servers, switched fabric, adaptive RPC, 1% loss: \
         engine, net, NFS and per-machine state dominate host time and \
         heap.";
      variants = 12;
      plan = nfs_fleet;
    };
  ]

let variant_seed ~seed v = (seed * 16) + v

let find name = List.find_opt (fun w -> w.name = name) all

(* Where job [job] of [s] lives, and which fill pattern its bytes follow:
   a shared file is prewritten by job 0. *)
let job_file (s : Fio.Spec.t) ~job =
  if s.Fio.Spec.share then (s.Fio.Spec.file, 0)
  else (Printf.sprintf "%s.%d" s.Fio.Spec.file job, job)

(* The file system that holds a job's file: the local machine, or the
   server the remote target round-robins private files to. *)
let image_of (st : setup) ~job =
  match st.images with
  | [ m ] -> m
  | ms -> List.nth ms (job mod List.length ms)
