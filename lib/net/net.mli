(** Simulated network on the {!Sim} engine: one {!fabric} type with
    three wirings — private point-to-point links, a shared medium, and
    a switch.

    An {!endpoint} is the transport-facing interface — send, blocking
    receive, pending count — and the RPC layers above are written
    against it alone.  A caller builds a {!fabric} from a {!kind},
    {!attach}es one node per machine and {!connect}s pairs of nodes;
    each connection yields the two endpoints, whichever wiring carries
    them.  Metrics registration and the read-outs the experiments use
    (per-node drops and busy time, wire utilization, switch overflows)
    are fabric functions too, so nothing above this module matches on
    the wiring.

    {b Point-to-point links.}  A link is a duplex pipe between two
    endpoints (conventionally a client machine and the server).  Each
    direction is modelled as a serial wire: a message occupies the wire
    for [size / bandwidth], then arrives [latency] later.  Delivery per
    direction is strictly FIFO — a delay spike injected on one message
    pushes every later message behind it, like a queue in a real
    switch.  {b Shared medium} ({!Medium}): all stations contend for one
    serial wire.  {b Switch} ({!Switch}): every node has a private
    full-duplex port; the congestion signal is finite output buffers.

    Sending charges a per-message plus per-KB serialization cost to the
    {e sender's} CPU (each endpoint is bound to its machine's
    {!Sim.Cpu.t} when it is made), so protocol overhead contends with
    the rest of that machine's work.

    Fault injection is seeded and deterministic, one draw shared by all
    three wirings: each message is dropped with probability [loss] (it
    still occupied the wire — the bits were transmitted, nobody heard
    them), and delayed by [spike] extra with probability [spike_prob].
    Loss applies independently to each direction, so a request/reply
    protocol above this layer sees both lost calls and lost replies. *)

type config = {
  bandwidth : int;  (** wire rate, bytes of payload per second *)
  latency : Sim.Time.t;  (** propagation delay, per message *)
  loss : float;  (** per-message drop probability, [0, 1) *)
  spike_prob : float;  (** per-message delay-spike probability *)
  spike : Sim.Time.t;  (** extra delay when a spike fires *)
  per_msg_cpu : Sim.Time.t;  (** serialization cost per message *)
  per_kb_cpu : Sim.Time.t;  (** serialization cost per payload KB *)
}

val default_config : config
(** A fast-Ethernet-class link: 12.5 MB/s, 500 us latency, no loss,
    no spikes, 50 us + 10 us/KB serialization. *)

val lossy : config -> float -> config
(** [lossy c p] is [c] with drop probability [p]. *)

type 'a endpoint
(** One transport attachment carrying messages of type ['a]: an end of
    a point-to-point link, or one peer's view of a shared-medium
    station or a switch port. *)

type 'a t
(** A duplex link. *)

val create :
  ?seed:int -> ?name:string ->
  Sim.Engine.t -> config -> a_cpu:Sim.Cpu.t -> b_cpu:Sim.Cpu.t -> 'a t
(** Build a link; [seed] (default 0) drives the fault injection,
    [name] appears in metrics and diagnostics. *)

val a_end : 'a t -> 'a endpoint
val b_end : 'a t -> 'a endpoint

val send : 'a endpoint -> size:int -> 'a -> unit
(** Transmit a message of [size] wire bytes toward the peer endpoint.
    Charges serialization to the sender's CPU (must run inside a
    simulation process), then occupies the wire and delivers — or
    drops — asynchronously.  Returns once the message is queued for the
    wire, not when it arrives. *)

val recv : 'a endpoint -> 'a
(** Block the calling process until a message arrives, then dequeue it
    (FIFO). *)

val pending : 'a endpoint -> int
(** Messages delivered but not yet received. *)

type stats = {
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable msgs_delivered : int;
  mutable drops : int;  (** seeded loss *)
  mutable spikes : int;
  wire_wait_us : Sim.Stats.Summary.t;
      (** time each message waited for a wire: the link's queue, the
          medium's grant, or the switch output port's downlink *)
  transit_us : Sim.Stats.Summary.t;
      (** send-to-delivery time of delivered messages *)
}
(** The counters every wiring keeps: one link (both directions), a
    whole medium, or a whole switch. *)

val stats : 'a t -> stats
(** Both directions combined. *)

(** A shared-medium (Ethernet-class) segment: N stations contending for
    one serial wire.

    Each station keeps a FIFO of outbound frames and runs a transmit
    pump: sense the wire; if free, seize it for [size / bandwidth]; if
    busy, defer with a seeded jittered backoff — binary-exponential in
    the station's consecutive-defer count, in units of [slot] — past
    the end of the transmission it collided with.  A station that wins
    the wire resets its backoff.  This is carrier-sense with
    collision-free deterministic arbitration: same-instant contenders
    are ordered by event sequence and losers back off through the
    medium's RNG, so a run is a pure function of the seed and the
    traffic.

    Frames are addressed (src station, dst station); delivery into the
    destination is FIFO per destination.  Loss and delay spikes are
    drawn per frame at wire-grant time from the same config as
    point-to-point links.  Per-frame serialization is charged to the
    {e sending station's} CPU.

    The medium exports what a shared wire makes scarce: utilization
    (busy time over elapsed time), contention/backoff events, and the
    queue-wait distribution. *)
module Medium : sig
  type 'a t
  (** One shared wire. *)

  type 'a station
  (** One attachment point (a machine's network interface). *)

  val create :
    ?seed:int -> ?name:string -> ?slot:Sim.Time.t -> ?max_backoff_exp:int ->
    Sim.Engine.t -> config -> 'a t
  (** [slot] (default 51 us — the classic Ethernet slot time) scales
      the backoff jitter; [max_backoff_exp] (default 10) caps the
      binary-exponential window.  [bandwidth] and [latency] come from
      the shared [config]; [loss]/[spike] fault injection applies per
      frame. *)

  val attach : 'a t -> cpu:Sim.Cpu.t -> 'a station
  (** Add a station; ids are assigned in attach order. *)

  val station_id : 'a station -> int

  val endpoint : 'a station -> peer:int -> 'a endpoint
  (** This station's channel to station [peer]: sends address [peer],
      receives are demultiplexed by source, so one station can serve
      many peers through independent endpoints (the NFS server's view
      of its clients). *)

  val stats : 'a t -> stats
  (** All stations; [wire_wait_us] is frame enqueue -> wire grant,
      [transit_us] enqueue -> delivery. *)

  val contentions : 'a t -> int
  (** Transmit attempts that found the wire busy and backed off. *)

  val utilization : 'a t -> float
  (** Wire busy time over elapsed simulation time, [0, 1]. *)
end

(** A store-and-forward switch: every host hangs off its own full-duplex
    port (a private uplink and a private downlink, each a serial wire at
    [bandwidth]), and the switch forwards frames between ports through
    finite per-output-port buffers.

    The path of a frame: the sender's CPU pays serialization, the frame
    occupies the sender's uplink for [size / bandwidth] and arrives at
    the switch [latency] later (store-and-forward: forwarding starts
    only once the whole frame is in).  If the destination port's output
    buffer is full the frame is tail-dropped — the congestion signal of
    a switched fabric, replacing the shared medium's collisions.
    Otherwise it waits FIFO in the output buffer, occupies the
    destination's downlink for [size / bandwidth], frees its buffer slot
    when the wire falls silent, and is delivered [latency] after that.
    Delivery is FIFO per output port (one serial downlink), whatever
    input ports the frames came from; there is no cut-through and no
    output-port fan-out contention beyond the buffer itself.

    Seeded fault injection ([loss], [spike]) applies on the uplink, with
    draws at send time in send order, so a run is a pure function of the
    switch seed and the traffic.  Unlike {!Medium} there is no carrier
    sense and no backoff: ports never contend for each other's wires,
    only for output buffers. *)
module Switch : sig
  type 'a t
  (** One switch. *)

  type 'a port
  (** One host's attachment (its full-duplex link to the switch). *)

  val create :
    ?seed:int -> ?name:string -> ?buffer:int ->
    Sim.Engine.t -> config -> 'a t
  (** [buffer] (default 64) is the output-buffer capacity per port, in
      frames; arrivals beyond it are tail-dropped. *)

  val attach : 'a t -> cpu:Sim.Cpu.t -> 'a port
  (** Add a port; ids are assigned in attach order. *)

  val port_id : 'a port -> int

  val endpoint : 'a port -> peer:int -> 'a endpoint
  (** This port's channel to port [peer]: sends address [peer], receives
      are demultiplexed by source port, so one port can serve many peers
      through independent endpoints (a server's view of its clients). *)

  val stats : 'a t -> stats
  (** All ports; [drops] is seeded uplink loss, [wire_wait_us] switch
      arrival -> downlink grant, [transit_us] send -> delivery. *)

  val overflows : 'a t -> int
  (** Tail drops at full output buffers. *)

  val occupancy_hwm : 'a t -> int
  (** Worst output-buffer occupancy seen, any port. *)

  val max_port_utilization : 'a t -> float
  (** Busiest port's max(uplink, downlink) busy time over elapsed time. *)
end

(** {1 Fabric} *)

type kind = Point_to_point | Shared_medium | Switched

type 'a fabric
(** A set of nodes and the wiring between them. *)

val fabric :
  ?seed:int -> ?ports_buffer:int -> kind -> Sim.Engine.t -> config ->
  'a fabric
(** An empty fabric of the given wiring.  [seed] (default 0) drives the
    fault injection: the medium's or the switch's single stream, or
    [seed + k] for the [k]-th point-to-point link (0-based connect
    order).  [ports_buffer] is the switch's per-output-port buffer in
    frames (default 64; ignored by the other wirings). *)

val attach : 'a fabric -> cpu:Sim.Cpu.t -> int
(** Add a node — a machine's network interface, whose serialization is
    charged to [cpu] — and return its id.  Ids are 0, 1, 2, … in attach
    order on every wiring (on a medium or a switch they are the station
    or port ids). *)

val connect : 'a fabric -> int -> int -> 'a endpoint * 'a endpoint
(** [connect fab a b] is [(a's endpoint toward b, b's endpoint toward
    a)].  On point-to-point wiring this builds a fresh duplex link whose
    [a2b] direction runs from [a] to [b]; on a medium or a switch it
    makes the two stations' or ports' per-peer endpoints. *)

val register_metrics : 'a fabric -> Sim.Metrics.t -> instance:string -> unit
(** Register the fabric-wide ["net"] source: [<instance>.net] for a
    shared medium (counters, contentions, utilization, queue wait),
    [<instance>.switch] for a switch (counters, overflow drops,
    occupancy high-water, busiest-port utilization).  Point-to-point
    wiring has no fabric-wide source. *)

val register_port_metrics :
  'a fabric -> int -> Sim.Metrics.t -> instance:string -> unit
(** Register a node's switch port as [<instance>.port]; nothing on the
    other wirings. *)

val register_link_metrics :
  'a fabric -> int -> Sim.Metrics.t -> instance:string -> unit
(** Register a node's point-to-point links, in connect order: one link
    as [<instance>.link], several as [<instance>.link.s<peer>] (the
    other end's node id).  Each source carries combined totals plus
    [a2b_*]/[b2a_*] per-direction counters.  Nothing on the other
    wirings. *)

(** {2 Read-outs}  Each reads 0 (or [None]) on wirings that do not have
    the thing it measures. *)

val link_stats : 'a fabric -> int -> int -> stats option
(** The point-to-point link between two nodes, both directions (the
    first one connected, if several). *)

val frames_sent : 'a fabric -> int
(** Messages transmitted so far, all nodes (on a medium, those that
    have won the wire). *)

val node_drops : 'a fabric -> int -> int
(** Seeded loss on the node's links (all of them, both directions) or
    on its switch uplink; 0 on a shared medium, whose drops are
    per-segment. *)

val node_busy_us : 'a fabric -> int -> int
(** The node's switch port occupancy: max(uplink, downlink) busy
    time. *)

val utilization : 'a fabric -> float
(** The shared medium's busy time over elapsed time, [0, 1]. *)

val overflows : 'a fabric -> int
(** Switch tail drops at full output buffers. *)

val occupancy_hwm : 'a fabric -> int
(** Worst switch output-buffer occupancy seen. *)

val max_port_utilization : 'a fabric -> float
(** Busiest switch port's max(up, down) busy time over elapsed time. *)
