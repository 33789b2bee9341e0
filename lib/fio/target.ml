type file = {
  read : off:int -> buf:bytes -> len:int -> int;
  write : off:int -> buf:bytes -> len:int -> unit;
  fsync : unit -> unit;
}

type t = {
  kind : string;
  engine : Sim.Engine.t;
  prepare : job:int -> Spec.t -> file;
}

(* A shared file is one file every job opens; private files carry the
   job number in their name. *)
let job_name (s : Spec.t) ~job =
  if s.Spec.share then s.Spec.file
  else Printf.sprintf "%s.%d" s.Spec.file job

(* Write [bytes] of deterministic contents in cluster-sized chunks —
   setup, not measurement, but still simulated I/O (the file must be
   laid out on the disk like any other). *)
let prewrite (s : Spec.t) ~job ~bytes ~write ~fsync =
  let chunk = 64 * 1024 in
  let buf = Bytes.create chunk in
  let off = ref 0 in
  while !off < bytes do
    let n = min chunk (bytes - !off) in
    Stream.fill s ~job ~off:!off buf ~len:n;
    write ~off:!off ~buf ~len:n;
    off := !off + n
  done;
  fsync ()

(* Whether this job does the data setup: every job of a private-file
   spec lays out its own file; with [share] job 0 prewrites the whole
   span once (jobs are prepared in order) and the rest just open it. *)
let prewrites (s : Spec.t) ~job =
  Stream.needs_data s && ((not s.Spec.share) || job = 0)

(* The job's closures over its open file.  A file that needs data gets
   it here, then goes cold — on a remote target only the client cache
   drops; the server's page cache stays warm, as the mount's
   second-level cache is part of what NFS runs measure.  The file is
   never closed: the closures use it for the rest of the run. *)
let open_job target (s : Spec.t) ~job path =
  (* jobs > 0 of a shared spec must not truncate what job 0 built *)
  let h =
    Workload.Handle.open_ target ~create:(not (s.Spec.share && job > 0)) path
  in
  let read ~off ~buf ~len = Workload.Handle.read h ~off ~buf ~len in
  let write ~off ~buf ~len = Workload.Handle.write h ~off ~buf ~len in
  let fsync () = Workload.Handle.fsync h in
  if prewrites s ~job then begin
    prewrite s ~job ~bytes:(Spec.span s) ~write ~fsync;
    Workload.Handle.cold h
  end;
  { read; write; fsync }

let local (m : Clusterfs.Machine.t) =
  let target = Workload.Handle.Local m.Clusterfs.Machine.fs in
  let prepare ~job s = open_job target s ~job ("/" ^ job_name s ~job) in
  { kind = "local"; engine = m.Clusterfs.Machine.engine; prepare }

let remote (topo : Clusterfs.Topology.t) =
  let clients = topo.Clusterfs.Topology.clients in
  let n = Array.length clients in
  let nsrv = Clusterfs.Topology.nservers topo in
  let prepare ~job (s : Spec.t) =
    (* a shared file lives behind one mount: all its jobs go through
       the same client cache, like processes sharing a kernel — and on
       one server, the one the namespace hash assigns the path.
       Private files round-robin over servers as well as clients, so a
       numjobs=8 spec on a 2-server fleet loads both machines *)
    let c = clients.((if s.Spec.share then 0 else job) mod n) in
    let mount =
      if s.Spec.share then Clusterfs.Topology.shard topo c (job_name s ~job)
      else Clusterfs.Topology.mount_of c ~server:(job mod nsrv)
    in
    open_job (Workload.Handle.Remote mount) s ~job (job_name s ~job)
  in
  {
    kind = "remote";
    engine = Clusterfs.Topology.engine topo;
    prepare;
  }
