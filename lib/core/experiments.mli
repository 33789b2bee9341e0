(** Experiment drivers: one function per paper figure/table plus the
    ablations called out in DESIGN.md.  Each builds fresh machines from
    {!Config.t} values, runs the workloads, and returns plain data the
    bench harness formats (paper-reported values are included as
    constants so every table prints paper-vs-measured). *)

(* ---------- Figures 9/10/11: IObench ---------- *)

type iobench_row = {
  config : string;
  fsr : float;
  fsu : float;
  fsw : float;
  frr : float;
  fru : float;
}

val paper_figure10 : iobench_row list
(** The paper's measured KB/s (Figure 10). *)

val figure10 : ?file_mb:int -> ?random_ops:int -> unit -> iobench_row list
(** Run IObench on configs A-D.  Defaults: 16 MB file, 512 random ops. *)

val cpu_utilization : ?file_mb:int -> unit -> (string * float * float) list
(** (config, FSR KB/s, CPU utilisation during FSR) for A and D — the
    paper's motivation: "about half of a 12MIPS CPU was used to get half
    of the disk bandwidth of a 1.5MB/second disk". *)

val ratios : iobench_row list -> base:string -> others:string list ->
  (string * iobench_row) list
(** Figure 11: [base]/[other] ratio rows, labelled "A/B" etc. *)

(* ---------- Figure 12: system CPU ---------- *)

type cpu_row = { label : string; sys_cpu_s : float; io_kb_per_sec : float }

val paper_figure12 : cpu_row list

val figure12 : ?file_mb:int -> unit -> cpu_row list
(** 16 MB mmap read, new (A) vs old (D) UFS. *)

(* ---------- Allocator extents (E5) ---------- *)

val allocator_best_case : ?mb:int -> unit -> Workload.Extents.measurement
(** Fresh file system, one 13 MB file. *)

val allocator_worst_case : unit -> Workload.Extents.measurement
(** Heavily aged small file system filled to ~85%, then one more large
    file squeezed into the remaining space. *)

(* ---------- Read-ahead / write-cluster I/O patterns (E6/E7) ---------- *)

type io_pattern = {
  label : string;
  disk_reads : int;
  disk_writes : int;
  blocks_per_read : float;
  blocks_per_write : float;
}

val io_patterns : ?file_mb:int -> unit -> io_pattern list
(** Sequential read + write of a file under configs A and D: how many
    disk requests it takes and their average size — the figures 3/6/7
    behaviour as counts. *)

(* ---------- Ablations ---------- *)

val cluster_size_sweep : ?file_mb:int -> ?sizes_kb:int list -> unit ->
  (int * float * float) list
(** E11: (cluster KB, FSR KB/s, FSW KB/s). *)

val write_limit_sweep : ?file_mb:int -> ?limits:int option list -> unit ->
  (string * float * float) list
(** E9: (limit label, FRU KB/s, FSW KB/s).  [None] = unlimited. *)

val free_behind_ablation : ?file_mb:int -> unit ->
  (string * float * int * int) list
(** E10: (label, FSR KB/s, pageout scans, pages freed by daemon) with
    free-behind on and off, streaming 2x memory. *)

val rotdelay_tuning : ?file_mb:int -> unit -> (string * float * float) list
(** E12: the rejected "just set rotdelay to 0" tuning — (label, FSR,
    FSW) for rotdelay 4 ms and rotdelay 0, both without clustering. *)

val driver_clustering_ablation : ?file_mb:int -> unit ->
  (string * float * float * int) list
(** E8: (label, FSR, FSW, coalesced-request count) for no clustering,
    driver-level clustering, and file-system clustering. *)

val musbus_comparison : unit -> (string * float * float) list
(** E13: (config, work-units/sec, sys CPU seconds) for A and D. *)

val border_ablation :
  ?nfiles:int -> unit ->
  (string * (float * float) * (float * float)) list
(** The B_ORDER further-work item: [(label, (create ms/op, drained),
    (rm ms/op, drained))] for synchronous directory metadata vs
    asynchronous ordered writes.  The first of each pair is the
    user-perceived latency; the second includes the queue drain. *)

val extent_fs_comparison : ?file_mb:int -> ?extent_sizes_kb:int list -> unit ->
  (string * float * float) list
(** The title claim, measured: (label, FSR KB/s, FSW KB/s) for a true
    extent-based file system at several user-chosen extent sizes, next
    to the clustered UFS (A) and the old UFS (D) on identical hardware.
    Expect clustered UFS to match the well-tuned extent FS — and the
    badly-tuned extent sizes to show why exposing the knob is a trap. *)

val request_size_sweep : ?file_mb:int -> ?sizes_kb:int list -> unit ->
  (int * float * float) list
(** (request KB, FSR KB/s, CPU seconds per MB) for sequential reads with
    different read(2) sizes on config A — how per-call overhead
    amortises above the block size and why 8 KB calls were the paper's
    norm. *)

val zoned_disk : ?file_mb:int -> unit -> (string * float) list
(** The variable-geometry argument against user-chosen extents: on a
    zoned drive the media rate itself changes across the disk, so the
    same cluster tuning yields different sequential rates at the outer
    and inner zones — "such a drive may have different values for the
    optimal extent size at different locations".  Returns labelled
    KB/s figures: raw media rate per zone and FSR for a file placed in
    each zone. *)

val future_work_ablation : ?file_mb:int -> unit -> (string * float) list
(** Bmap cache, UFS_HOLE skip and getpage-hint random clustering:
    (label, metric) pairs — see the bench output for the metric of each
    row (CPU seconds or KB/s). *)

val vol_stripe_sweep :
  ?file_mb:int -> ?disk_counts:int list -> ?stripe_kbs:int list -> unit ->
  (string * int * int * float * float) list
(** Volume-manager striping vs file-system clustering: [(config, disks,
    stripe KB, FSR KB/s, FSW KB/s)] for configs A and D over 1/2/4-disk
    stripes at several stripe units.  One disk is a single baseline row
    (the stripe unit is moot).  Expect: a stripe unit at or above the
    cluster size keeps each 120 KB cluster a single member I/O and lets
    read-ahead overlap members (FSR above one disk); a small stripe unit
    shatters clusters into per-member fragments; and config D barely
    moves — without clustering there is no big request to split. *)

val vol_mirror :
  ?file_mb:int -> ?readers:int -> unit ->
  (string * float * float * int) list
(** Mirroring: [(label, aggregate concurrent-read KB/s, sequential-write
    KB/s, dropped writes)] for one disk, 2- and 3-way mirrors, and a
    2-way mirror running degraded (member 1 failed before the reads, so
    its row's write rate and dropped count are measured degraded).
    Reads are [readers] concurrent streaming processes — a single
    sequential reader has one request outstanding and cannot use the
    second copy.  Expect read scaling with mirror width, writes at
    roughly the one-disk rate (every copy must land), and the degraded
    mirror back at one-disk read throughput. *)

(* ---------- NFS over the simulated network ---------- *)

type nfs_row = {
  nfs_config : string;
  local_fsr : float;  (** KB/s on the server's own UFS *)
  remote_fsr : float;  (** KB/s through the mount, zero-loss link *)
  local_fsw : float;
  remote_fsw : float;
  remote_ra_issued : int;  (** biod read-ahead clusters issued *)
  read_rpcs : int;  (** READ calls the remote FSR+FSW pair cost *)
  write_rpcs : int;
}

val nfs_local_vs_remote :
  ?file_mb:int -> ?configs:Config.t list -> ?net:Net.config -> unit ->
  nfs_row list
(** The tentpole table: IObench FSR/FSW locally on each config's
    machine vs remotely through a one-client topology on a zero-loss
    link.  With client-side clustering working, config A's remote
    streams move cluster-sized RPCs ([read_rpcs] ~ file / 120 KB) and
    remote FSR holds most of local FSR; without it (configs B-D the
    client still clusters — the {e server} is what changes) the gap
    shows where the time went. *)

val prepare_cold : Topology.t -> (int -> Workload.Iobench.config) -> unit
(** Every client [id] creates and writes its benchmark file [cfg id]
    through the mount {!Topology.shard} picks for its path (untimed),
    then {!cool_server_files}. *)

val cool_server_files : Topology.t -> (int -> Workload.Iobench.config) -> unit
(** Drop every client's benchmark file from its owning server's page
    cache ({!Workload.Handle.cold} on the server), so the next remote
    phase pays the same disk reads a local cold-start phase does and
    "remote vs local" measures wire cost rather than cache warmth. *)

type nfs_scale_row = {
  sc_clients : int;
  sc_nfsd : int;
  sc_bandwidth_mb : float;
  aggregate_kb_per_sec : float;  (** all streams, concurrent window *)
  per_client_kb_per_sec : float;
  sc_retransmits : int;
  server_queue_wait_ms : float;  (** mean request wait for an nfsd *)
  sc_dup_evictions : int;
      (** dup-cache entries evicted — nonzero means the exactly-once
          guarantee for retried CREATE/WRITE is at risk at this scale *)
}

val nfs_scale_net : Net.config
(** The default scaling link: shared-Ethernet-class, 600 KB/s — slower
    than the server disk, so one client is link-limited and the
    aggregate has room to grow. *)

val nfs_scaling :
  ?file_mb:int -> ?nfsd:int -> ?net:Net.config -> ?config:Config.t ->
  clients:int -> unit -> nfs_scale_row
(** [clients] concurrent streaming readers, each of its own file,
    spawned at the same instant after an untimed prepare and a
    server-cache cool-down.  On {!nfs_scale_net} links aggregate
    throughput grows with the client count until the server disk
    saturates; on faster links one client already saturates the disk
    and extra clients only add seek interference.  The mount runs with
    a raised retransmission timeout so server queueing under
    saturation is not mistaken for loss. *)

type fleet_row = {
  fl_clients : int;
  fl_servers : int;
  fl_topology : string;  (** ["p2p" | "shared" | "switched"] *)
  fl_aggregate_kb_per_sec : float;  (** all streams, concurrent window *)
  fl_per_client_kb_per_sec : float;
  fl_retransmits : int;  (** all clients, all mounts *)
  fl_server_queue_ms : float;  (** worst server: mean nfsd queue wait *)
  fl_server_cpu_util : float;  (** worst server: CPU busy over window *)
  fl_disk_util : float;  (** worst server: disk busy over window *)
  fl_port_util : float;
      (** worst server switch port busy over window (or medium
          utilization on a shared wire; 0 for p2p) *)
  fl_switch_drops : int;  (** output-buffer tail drops *)
  fl_occ_hwm : int;  (** worst output-buffer occupancy seen *)
  fl_dup_evictions : int;
  fl_bottleneck : string;
      (** the binding resource at this rung: ["server disk"],
          ["server cpu"], ["server port"], ["shared wire"],
          ["switch buffers"] (drops observed) or
          ["client links (offered load)"] when nothing server-side is
          past 50% busy *)
}

val nfs_fleet :
  ?file_mb:int ->
  ?nfsd:int ->
  ?net:Net.config ->
  ?topology:Topology.kind ->
  ?transport:Nfs.Rpc.transport ->
  ?ports_buffer:int ->
  ?config:Config.t ->
  servers:int ->
  clients:int ->
  unit ->
  fleet_row
(** One rung of the fleet bottleneck ladder: [clients] concurrent
    streaming readers of small (default 1 MB) files hash-sharded over
    [servers] servers (default wiring {!Topology.Switched} on
    {!Net.default_config}-class 12.5 MB/s ports, adaptive transport).  Utilizations are busy-time deltas over the concurrent
    measurement window only, so the untimed prepare phase does not
    pollute them.  Aggregate goodput stops scaling when the named
    bottleneck binds — sweeping [clients] at fixed [servers] locates
    the knee, and [fl_bottleneck] says what to buy next. *)

type nfs_cc_row = {
  cc_clients : int;
  cc_transport : string;  (** ["fixed" | "adaptive"] *)
  cc_topology : string;  (** ["p2p" | "shared"] *)
  cc_goodput_kb_per_sec : float;  (** all streams, concurrent window *)
  cc_retransmits : int;  (** all clients, whole measured window *)
  cc_steady_retransmits : int;
      (** second half of the window only — after the adaptive
          estimator converges this should be ~0 *)
  cc_backoffs : int;  (** adaptive RTO backoff events, all clients *)
  cc_dup_hits : int;
  cc_dup_evictions : int;
  cc_srtt_ms : float;  (** client 0's converged estimate; 0 for fixed *)
  cc_rto_ms : float;
  cc_cwnd : float;  (** client 0's final window; 0 for fixed *)
  cc_server_queue_ms : float;
  cc_medium_util : float;  (** shared-wire busy fraction; 0 for p2p *)
}

val nfs_congestion_point :
  ?file_mb:int -> ?net:Net.config -> clients:int ->
  transport:Nfs.Rpc.transport -> topology:Topology.kind -> unit -> nfs_cc_row
(** One cell: [clients] concurrent streaming readers on Ethernet-class
    links ({!nfs_scale_net}), fixed transport at the true NFSv2 default
    timeout (1.1 s) so saturation queueing trips it — the congestion
    collapse — while the adaptive transport must learn the delay
    through srtt/rttvar instead of being handed a safe timeout. *)

val nfs_congestion :
  ?file_mb:int -> ?net:Net.config -> ?client_counts:int list -> unit ->
  nfs_cc_row list
(** The full sweep: client counts × \{fixed, adaptive\} × \{p2p,
    shared medium\}.  Expect fixed goodput to collapse as clients grow
    (retransmit duplicates amplifying the overload) and adaptive
    goodput to hold, with near-zero steady-state retransmits. *)

type nfs_loss_row = {
  loss_pct : float;
  goodput_kb_per_sec : float;  (** application bytes over elapsed *)
  zl_retransmits : int;
  zl_drops : int;  (** messages the link ate (both directions) *)
  zl_dup_hits : int;  (** retransmits answered from the dup cache *)
  creates_applied : int;
  creates_issued : int;
  writes_applied : int;
  writes_issued : int;
}

val nfs_loss : ?file_mb:int -> ?losses:float list -> unit -> nfs_loss_row list
(** FSW + FSR through one lossy link per row (default 0 / 0.1 / 1 / 5 %
    drop probability).  The invariant on display: however many
    retransmissions the loss forces, [creates_applied = creates_issued]
    and [writes_applied = writes_issued] — the duplicate-request cache
    absorbs every replay — while goodput degrades but never reaches
    zero (hard-mount retry). *)
