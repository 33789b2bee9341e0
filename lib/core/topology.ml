type kind = Net.kind = Point_to_point | Shared_medium | Switched

let kind_names =
  [ ("p2p", Point_to_point); ("shared", Shared_medium); ("switched", Switched) ]

let kind_name k = fst (List.find (fun (_, k') -> k' = k) kind_names)

type mountpoint = {
  m_server : int;
  m_rpc : Nfs.Rpc.t;
  m_mount : Nfs.Client.t;
}

type client = {
  id : int;
  node : int;
  cpu : Sim.Cpu.t;
  rpc : Nfs.Rpc.t;
  mount : Nfs.Client.t;
  mounts : mountpoint array;  (* one per server; element 0 = rpc/mount *)
}

type t = {
  server : Machine.t;  (* = servers.(0): the 1-server API keeps working *)
  service : Nfs.Server.t;  (* = services.(0) *)
  servers : Machine.t array;
  services : Nfs.Server.t array;
  clients : client array;
  fabric : Nfs.Proto.msg Net.fabric;
  crashed : Disk.Store.t option array;
      (* platter images latched at crash_server, consumed by reboot *)
  (* channel parameters retained so add_mount can attach later *)
  transport : Nfs.Rpc.transport option;
  rpc_timeout : Sim.Time.t option;
  mutable next_rpc_id : int;  (* unique per rpc channel: dup-cache keys *)
}

let client_drops t c = Net.node_drops t.fabric c.node

let create ?(net = Net.default_config) ?(seed = 0)
    ?(topology = Point_to_point) ?transport ?(nfsd = 4) ?biods ?ra_depth
    ?dirty_limit ?rpc_timeout ?(servers = 1) ?ports_buffer
    ?(register_clients = true) ~clients config =
  if servers < 1 then invalid_arg "Topology.create: servers must be >= 1";
  if clients < 1 then invalid_arg "Topology.create: clients must be >= 1";
  let server0 = Machine.create config in
  let engine = server0.Machine.engine in
  let machines =
    Array.init servers (fun s ->
        if s = 0 then server0
        else
          Machine.create ~engine
            (Config.with_name config
               (Printf.sprintf "%s.s%d" config.Config.name s)))
  in
  (* node numbering: server [s] is node [s], client [i] is node
     [servers + i] *)
  let fabric = Net.fabric ~seed ?ports_buffer topology engine net in
  Array.iter
    (fun sv -> ignore (Net.attach fabric ~cpu:sv.Machine.cpu))
    machines;
  let nodes =
    Array.init clients (fun _ ->
        let cpu = Sim.Cpu.create engine in
        (Net.attach fabric ~cpu, cpu))
  in
  (* (client end, server end) per client and server; connect order,
     client-major, is each p2p link's seed offset *)
  let chans =
    Array.map
      (fun (node, _) -> Array.init servers (fun s -> Net.connect fabric node s))
      nodes
  in
  let services =
    Array.init servers (fun s ->
        Nfs.Server.create engine ~cpu:machines.(s).Machine.cpu
          ~fs:machines.(s).Machine.fs ~nfsd
          ~endpoints:(Array.to_list (Array.map (fun ch -> snd ch.(s)) chans))
          ())
  in
  let clients =
    Array.mapi
      (fun id (node, cpu) ->
        let mounts =
          Array.init servers (fun s ->
              (* per-server congestion state: every future mount from
                 this client to server [s] shares this channel's cstate *)
              let rpc =
                Nfs.Rpc.create engine ~cpu ~ep:(fst chans.(id).(s))
                  ~client_id:id ?transport ?timeout:rpc_timeout ()
              in
              let m_mount =
                Nfs.Client.mount engine ~cpu ~rpc ?biods ?ra_depth
                  ?dirty_limit ()
              in
              { m_server = s; m_rpc = rpc; m_mount })
        in
        {
          id;
          node;
          cpu;
          rpc = mounts.(0).m_rpc;
          mount = mounts.(0).m_mount;
          mounts;
        })
      nodes
  in
  (match Machine.current_metrics_sink () with
  | Some reg ->
      let name = config.Config.name in
      let sname s =
        if s = 0 then name else Printf.sprintf "%s.s%d" name s
      in
      Array.iteri
        (fun s svc ->
          Nfs.Server.register_metrics svc reg ~instance:(sname s ^ ".server"))
        services;
      Net.register_metrics fabric reg ~instance:name;
      for s = 0 to servers - 1 do
        Net.register_port_metrics fabric s reg ~instance:(sname s)
      done;
      if register_clients then
        Array.iter
          (fun c ->
            let cname = Printf.sprintf "%s.c%d" name c.id in
            Net.register_link_metrics fabric c.node reg ~instance:cname;
            if servers = 1 then
              Nfs.Client.register_metrics c.mount reg ~instance:cname
            else
              Array.iter
                (fun m ->
                  Nfs.Client.register_metrics m.m_mount reg
                    ~instance:(Printf.sprintf "%s.s%d" cname m.m_server))
                c.mounts)
          clients
  | None -> ());
  {
    server = machines.(0);
    service = services.(0);
    servers = machines;
    services;
    clients;
    fabric;
    crashed = Array.make servers None;
    transport;
    rpc_timeout;
    next_rpc_id = Array.length clients;
  }

let engine t = t.server.Machine.engine
let nservers t = Array.length t.servers

(* ---------- namespace sharding ---------- *)

(* FNV-1a over the path: stable, seed-independent, cheap.  Which server
   owns a file is a pure function of its name, so every client (and the
   bench code preparing files) agrees without coordination. *)
let server_of_path t path =
  let n = Array.length t.servers in
  if n = 1 then 0
  else begin
    let h = ref 0x811c9dc5 in
    String.iter
      (fun c ->
        h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
      path;
    !h mod n
  end

let shard t c path = c.mounts.(server_of_path t path).m_mount
let mount_of c ~server = c.mounts.(server).m_mount

(* ---------- extra mounts (per-server congestion state) ---------- *)

let add_mount t c ~server ?biods ?ra_depth ?dirty_limit () =
  if server < 0 || server >= Array.length t.servers then
    invalid_arg "Topology.add_mount: no such server";
  let engine = engine t in
  let rpc_id = t.next_rpc_id in
  t.next_rpc_id <- t.next_rpc_id + 1;
  (* a genuinely new transport attachment: its own node (link, station
     or port), its own xid space and dispatcher on the server — but the
     congestion state is the per-server channel's, shared with the
     existing mount *)
  let node = Net.attach t.fabric ~cpu:c.cpu in
  let ep, srv_ep = Net.connect t.fabric node server in
  Nfs.Server.add_endpoint t.services.(server) srv_ep;
  let cstate = Nfs.Rpc.cstate_of c.mounts.(server).m_rpc in
  let rpc =
    Nfs.Rpc.create engine ~cpu:c.cpu ~ep ~client_id:rpc_id
      ?transport:t.transport ?timeout:t.rpc_timeout ~cstate ()
  in
  let m_mount =
    Nfs.Client.mount engine ~cpu:c.cpu ~rpc ?biods ?ra_depth ?dirty_limit ()
  in
  { m_server = server; m_rpc = rpc; m_mount }

(* ---------- server crash / reboot ---------- *)

let crash_server ?(server = 0) t =
  let m = t.servers.(server) in
  Nfs.Server.crash t.services.(server);
  (* power-cut the drives: queued and in-flight requests are tallied as
     crash-dropped and the write cutoff latches, so nothing issued by
     the dead instance can reach the platter from here on *)
  Disk.Blkdev.crash_cut m.Machine.dev;
  let src = Disk.Blkdev.store m.Machine.dev in
  let snap = Disk.Store.create ~size:(Disk.Store.size src) in
  Disk.Store.copy_into src snap;
  t.crashed.(server) <- Some snap;
  snap

let reboot_server ?(server = 0) t =
  let m = t.servers.(server) in
  let dev = m.Machine.dev in
  let snap =
    match t.crashed.(server) with
    | Some s -> s
    | None -> invalid_arg "Topology.reboot_server: server has not crashed"
  in
  (* let requests the dead instance still had in flight drain (their
     writes were latched off), then restore the exact crash image and
     clear the latch: the disk is now what a rebooted kernel would see *)
  Disk.Blkdev.quiesce dev;
  Disk.Store.copy_into snap (Disk.Blkdev.store dev);
  Disk.Blkdev.set_write_cutoff dev None;
  t.crashed.(server) <- None;
  (* the page cache died with the machine *)
  Vm.Pool.invalidate_all m.Machine.pool;
  (* timed journal replay, then a clean mount *)
  let report = Ufs.Recover.run dev in
  let fs =
    Ufs.Fs.mount m.Machine.engine m.Machine.cpu m.Machine.pool dev
      ~features:m.Machine.config.Config.features
      ~costs:m.Machine.config.Config.costs ()
  in
  m.Machine.fs <- fs;
  Nfs.Server.restart t.services.(server) ~fs;
  report

let run_clients t f =
  let n = Array.length t.clients in
  let completed = ref 0 in
  let err = ref None in
  Array.iter
    (fun c ->
      Sim.Engine.spawn (engine t)
        ~name:(Printf.sprintf "client.%d" c.id)
        (fun () ->
          (try f c
           with e ->
             if !err = None then
               err := Some (e, Printexc.get_raw_backtrace ()));
          incr completed))
    t.clients;
  Sim.Engine.run (engine t);
  (match !err with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  if !completed < n then
    raise
      (Sim.Engine.Deadlock
         (Printf.sprintf "%d of %d client processes never completed"
            (n - !completed) n))

let run t f =
  let result = ref None in
  Sim.Engine.spawn (engine t) ~name:"experiment" (fun () ->
      match f t with
      | v -> result := Some (Ok v)
      | exception e ->
          result := Some (Error (e, Printexc.get_raw_backtrace ())));
  Sim.Engine.run (engine t);
  match !result with
  | Some (Ok v) -> v
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | None ->
      raise
        (Sim.Engine.Deadlock
           "experiment process never completed (blocked forever)")
