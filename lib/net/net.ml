type config = {
  bandwidth : int;
  latency : Sim.Time.t;
  loss : float;
  spike_prob : float;
  spike : Sim.Time.t;
  per_msg_cpu : Sim.Time.t;
  per_kb_cpu : Sim.Time.t;
}

let default_config =
  {
    bandwidth = 12_500_000;
    latency = Sim.Time.us 500;
    loss = 0.;
    spike_prob = 0.;
    spike = Sim.Time.ms 20;
    per_msg_cpu = Sim.Time.us 50;
    per_kb_cpu = Sim.Time.us 10;
  }

let lossy c p = { c with loss = p }

let validate ~who cfg =
  if cfg.bandwidth <= 0 then invalid_arg (who ^ ": bandwidth must be > 0");
  if cfg.loss < 0. || cfg.loss >= 1. then
    invalid_arg (who ^ ": loss must be in [0, 1)")

type stats = {
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable msgs_delivered : int;
  mutable drops : int;
  mutable spikes : int;
  wire_wait_us : Sim.Stats.Summary.t;
  transit_us : Sim.Stats.Summary.t;
}

let mk_stats () =
  {
    msgs_sent = 0;
    bytes_sent = 0;
    msgs_delivered = 0;
    drops = 0;
    spikes = 0;
    wire_wait_us = Sim.Stats.Summary.create ();
    transit_us = Sim.Stats.Summary.create ();
  }

let xmit_time cfg ~size =
  (* ceil(size / bandwidth) in integer microseconds *)
  ((size * 1_000_000) + cfg.bandwidth - 1) / cfg.bandwidth

let serialization_cpu cfg ~size =
  cfg.per_msg_cpu + (cfg.per_kb_cpu * ((size + 1023) / 1024))

(* An endpoint is an interface, not a wire: the same RPC machinery runs
   over a private point-to-point link or over one station of a shared
   medium without knowing which. *)
type 'a endpoint = {
  ep_send : size:int -> 'a -> unit;
  ep_recv : unit -> 'a;
  ep_pending : unit -> int;
}

let send ep ~size msg = ep.ep_send ~size msg
let recv ep = ep.ep_recv ()
let pending ep = ep.ep_pending ()

(* ---------- point-to-point duplex links ---------- *)

(* One direction of the wire: its own serialization point, FIFO arrival
   ordering and stats; fault-injection RNG and the combined stats record
   are shared with the reverse direction. *)
type 'a dir = {
  mutable free_at : Sim.Time.t;  (** wire busy until *)
  mutable last_arrival : Sim.Time.t;
  inbox : 'a Queue.t;  (** the RECEIVING endpoint's mailbox *)
  cond : Sim.Condition.t;
  dst : stats;  (** this direction only *)
}

type 'a pep = {
  engine : Sim.Engine.t;
  cfg : config;
  cpu : Sim.Cpu.t;  (** sender's CPU: serialization is charged here *)
  out : 'a dir;  (** direction this endpoint transmits into *)
  inc : 'a dir;  (** direction this endpoint receives from *)
  rng : Sim.Rng.t;
  st : stats;  (** both directions combined *)
}

type 'a t = {
  a : 'a pep;
  b : 'a pep;
  a_ep : 'a endpoint;
  b_ep : 'a endpoint;
  name : string;
}

let mk_dir engine name =
  {
    free_at = Sim.Time.zero;
    last_arrival = Sim.Time.zero;
    inbox = Queue.create ();
    cond = Sim.Condition.create engine name;
    dst = mk_stats ();
  }

let p2p_send ep ~size msg =
  let cfg = ep.cfg in
  Sim.Cpu.charge ep.cpu ~label:"net" (serialization_cpu cfg ~size);
  let now = Sim.Engine.now ep.engine in
  let dir = ep.out in
  let start = max now dir.free_at in
  let wire_wait = start - now in
  dir.free_at <- start + xmit_time cfg ~size;
  ep.st.msgs_sent <- ep.st.msgs_sent + 1;
  ep.st.bytes_sent <- ep.st.bytes_sent + size;
  dir.dst.msgs_sent <- dir.dst.msgs_sent + 1;
  dir.dst.bytes_sent <- dir.dst.bytes_sent + size;
  Sim.Stats.Summary.add ep.st.wire_wait_us (float_of_int wire_wait);
  Sim.Stats.Summary.add dir.dst.wire_wait_us (float_of_int wire_wait);
  (* fault injection: the draws happen at send time, in send order, so
     a run is a pure function of the link seed and the traffic *)
  let dropped = cfg.loss > 0. && Sim.Rng.float ep.rng 1.0 < cfg.loss in
  let spiked =
    cfg.spike_prob > 0. && Sim.Rng.float ep.rng 1.0 < cfg.spike_prob
  in
  if spiked then begin
    ep.st.spikes <- ep.st.spikes + 1;
    dir.dst.spikes <- dir.dst.spikes + 1
  end;
  if dropped then begin
    ep.st.drops <- ep.st.drops + 1;
    dir.dst.drops <- dir.dst.drops + 1
  end
  else begin
    let arrival =
      dir.free_at + cfg.latency + (if spiked then cfg.spike else Sim.Time.zero)
    in
    (* FIFO delivery: a spike on one message holds every later one
       behind it *)
    let arrival = max arrival dir.last_arrival in
    dir.last_arrival <- arrival;
    Sim.Engine.schedule ep.engine ~delay:(arrival - now) (fun () ->
        Queue.push msg dir.inbox;
        ep.st.msgs_delivered <- ep.st.msgs_delivered + 1;
        dir.dst.msgs_delivered <- dir.dst.msgs_delivered + 1;
        Sim.Stats.Summary.add ep.st.transit_us (float_of_int (arrival - now));
        Sim.Stats.Summary.add dir.dst.transit_us (float_of_int (arrival - now));
        Sim.Condition.signal dir.cond)
  end

let rec p2p_recv ep =
  if Queue.is_empty ep.inc.inbox then begin
    Sim.Condition.wait ep.inc.cond;
    p2p_recv ep
  end
  else Queue.pop ep.inc.inbox

let iface_of_pep ep =
  {
    ep_send = (fun ~size msg -> p2p_send ep ~size msg);
    ep_recv = (fun () -> p2p_recv ep);
    ep_pending = (fun () -> Queue.length ep.inc.inbox);
  }

let create ?(seed = 0) ?(name = "link") engine cfg ~a_cpu ~b_cpu =
  validate ~who:"Net.create" cfg;
  let ab = mk_dir engine (name ^ ".ab") in
  let ba = mk_dir engine (name ^ ".ba") in
  let rng = Sim.Rng.create ~seed in
  let st = mk_stats () in
  let a = { engine; cfg; cpu = a_cpu; out = ab; inc = ba; rng; st } in
  let b = { engine; cfg; cpu = b_cpu; out = ba; inc = ab; rng; st } in
  { a; b; a_ep = iface_of_pep a; b_ep = iface_of_pep b; name }

let a_end t = t.a_ep
let b_end t = t.b_ep

let stats t = t.a.st

let register_metrics t reg ~instance =
  let s = t.a.st in
  let ab = t.a.out.dst and ba = t.b.out.dst in
  Sim.Metrics.register reg ~layer:"net" ~instance (fun () ->
      [
        ("msgs_sent", Sim.Metrics.Int s.msgs_sent);
        ("bytes_sent", Sim.Metrics.Int s.bytes_sent);
        ("msgs_delivered", Sim.Metrics.Int s.msgs_delivered);
        ("drops", Sim.Metrics.Int s.drops);
        ("delay_spikes", Sim.Metrics.Int s.spikes);
        ("wire_wait_us", Sim.Metrics.Summary s.wire_wait_us);
        ("transit_us", Sim.Metrics.Summary s.transit_us);
        (* per direction: asymmetric loss and reply-side queuing show
           up here, invisible in the combined numbers *)
        ("a2b_msgs", Sim.Metrics.Int ab.msgs_sent);
        ("a2b_bytes", Sim.Metrics.Int ab.bytes_sent);
        ("a2b_drops", Sim.Metrics.Int ab.drops);
        ("a2b_wire_wait_us", Sim.Metrics.Summary ab.wire_wait_us);
        ("b2a_msgs", Sim.Metrics.Int ba.msgs_sent);
        ("b2a_bytes", Sim.Metrics.Int ba.bytes_sent);
        ("b2a_drops", Sim.Metrics.Int ba.drops);
        ("b2a_wire_wait_us", Sim.Metrics.Summary ba.wire_wait_us);
      ])

(* ---------- shared medium ---------- *)

module Medium = struct
  type m_stats = {
    mutable frames_sent : int;
    mutable m_bytes_sent : int;
    mutable frames_delivered : int;
    mutable m_drops : int;
    mutable m_spikes : int;
    mutable contentions : int;
    mutable busy_us : int;
    m_queue_wait_us : Sim.Stats.Summary.t;
    m_transit_us : Sim.Stats.Summary.t;
  }

  type 'a frame = {
    src : int;
    f_dst : int;
    fsize : int;
    payload : 'a;
    enq_at : Sim.Time.t;
  }

  type 'a inbox = { q : 'a Queue.t; ib_cond : Sim.Condition.t }

  type 'a t = {
    m_engine : Sim.Engine.t;
    m_cfg : config;
    slot : Sim.Time.t;
    max_exp : int;
    m_name : string;
    m_rng : Sim.Rng.t;
    mutable wire_free_at : Sim.Time.t;
    stations : (int, 'a station) Hashtbl.t;
    mutable nstations : int;
    last_arrival : (int, Sim.Time.t) Hashtbl.t;  (** per-dst FIFO floor *)
    m_st : m_stats;
  }

  and 'a station = {
    med : 'a t;
    sid : int;
    s_cpu : Sim.Cpu.t;
    outq : 'a frame Queue.t;
    mutable pumping : bool;
    mutable backoff_exp : int;
    inboxes : (int, 'a inbox) Hashtbl.t;  (** keyed by source station *)
    s_queue_wait_us : Sim.Stats.Summary.t;
  }

  let create ?(seed = 0) ?(name = "ether") ?(slot = Sim.Time.us 51)
      ?(max_backoff_exp = 10) engine cfg =
    validate ~who:"Net.Medium.create" cfg;
    if slot <= 0 then invalid_arg "Net.Medium.create: slot must be > 0";
    {
      m_engine = engine;
      m_cfg = cfg;
      slot;
      max_exp = max_backoff_exp;
      m_name = name;
      m_rng = Sim.Rng.create ~seed;
      wire_free_at = Sim.Time.zero;
      stations = Hashtbl.create 16;
      nstations = 0;
      last_arrival = Hashtbl.create 16;
      m_st =
        {
          frames_sent = 0;
          m_bytes_sent = 0;
          frames_delivered = 0;
          m_drops = 0;
          m_spikes = 0;
          contentions = 0;
          busy_us = 0;
          m_queue_wait_us = Sim.Stats.Summary.create ();
          m_transit_us = Sim.Stats.Summary.create ();
        };
    }

  let attach t ~cpu =
    let s =
      {
        med = t;
        sid = t.nstations;
        s_cpu = cpu;
        outq = Queue.create ();
        pumping = false;
        backoff_exp = 0;
        inboxes = Hashtbl.create 4;
        s_queue_wait_us = Sim.Stats.Summary.create ();
      }
    in
    Hashtbl.replace t.stations s.sid s;
    t.nstations <- t.nstations + 1;
    s

  let station_id s = s.sid

  let inbox_of s ~src =
    match Hashtbl.find_opt s.inboxes src with
    | Some ib -> ib
    | None ->
        let ib =
          {
            q = Queue.create ();
            ib_cond =
              Sim.Condition.create s.med.m_engine
                (Printf.sprintf "%s.s%d<-%d" s.med.m_name s.sid src);
          }
        in
        Hashtbl.replace s.inboxes src ib;
        ib

  (* The station's transmit pump.  One event chain per backlogged
     station: sense the wire; if busy, defer a seeded jittered backoff
     past the end of the current transmission (binary-exponential in
     the station's consecutive-defer count); if free, seize it for the
     head-of-queue frame.  Contention resolution is deterministic:
     same-instant attempts are ordered by event sequence, losers back
     off through the shared RNG. *)
  let rec try_transmit s () =
    let m = s.med in
    let now = Sim.Engine.now m.m_engine in
    if Queue.is_empty s.outq then s.pumping <- false
    else if now < m.wire_free_at then begin
      m.m_st.contentions <- m.m_st.contentions + 1;
      let window = 1 lsl min s.backoff_exp m.max_exp in
      s.backoff_exp <- s.backoff_exp + 1;
      let jitter = m.slot * (1 + Sim.Rng.int m.m_rng window) in
      Sim.Engine.schedule m.m_engine
        ~delay:(m.wire_free_at - now + jitter)
        (try_transmit s)
    end
    else begin
      let fr = Queue.pop s.outq in
      let wait = now - fr.enq_at in
      Sim.Stats.Summary.add m.m_st.m_queue_wait_us (float_of_int wait);
      Sim.Stats.Summary.add s.s_queue_wait_us (float_of_int wait);
      s.backoff_exp <- 0;
      let xmit = xmit_time m.m_cfg ~size:fr.fsize in
      m.wire_free_at <- now + xmit;
      m.m_st.busy_us <- m.m_st.busy_us + xmit;
      m.m_st.frames_sent <- m.m_st.frames_sent + 1;
      m.m_st.m_bytes_sent <- m.m_st.m_bytes_sent + fr.fsize;
      let cfg = m.m_cfg in
      let dropped = cfg.loss > 0. && Sim.Rng.float m.m_rng 1.0 < cfg.loss in
      let spiked =
        cfg.spike_prob > 0. && Sim.Rng.float m.m_rng 1.0 < cfg.spike_prob
      in
      if spiked then m.m_st.m_spikes <- m.m_st.m_spikes + 1;
      if dropped then m.m_st.m_drops <- m.m_st.m_drops + 1
      else begin
        let arrival =
          m.wire_free_at + cfg.latency
          + (if spiked then cfg.spike else Sim.Time.zero)
        in
        (* one serial wire: everything bound for a station arrives in
           transmission order, spikes push later frames behind them *)
        let floor =
          Option.value
            (Hashtbl.find_opt m.last_arrival fr.f_dst)
            ~default:Sim.Time.zero
        in
        let arrival = max arrival floor in
        Hashtbl.replace m.last_arrival fr.f_dst arrival;
        Sim.Engine.schedule m.m_engine ~delay:(arrival - now) (fun () ->
            match Hashtbl.find_opt m.stations fr.f_dst with
            | None -> ()  (* no such station: the bits fall on the floor *)
            | Some dst ->
                let ib = inbox_of dst ~src:fr.src in
                Queue.push fr.payload ib.q;
                m.m_st.frames_delivered <- m.m_st.frames_delivered + 1;
                Sim.Stats.Summary.add m.m_st.m_transit_us
                  (float_of_int (arrival - fr.enq_at));
                Sim.Condition.signal ib.ib_cond)
      end;
      if Queue.is_empty s.outq then s.pumping <- false
      else Sim.Engine.schedule m.m_engine ~delay:xmit (try_transmit s)
    end

  let send_to s ~dst ~size payload =
    let m = s.med in
    Sim.Cpu.charge s.s_cpu ~label:"net" (serialization_cpu m.m_cfg ~size);
    Queue.push
      {
        src = s.sid;
        f_dst = dst;
        fsize = size;
        payload;
        enq_at = Sim.Engine.now m.m_engine;
      }
      s.outq;
    if not s.pumping then begin
      s.pumping <- true;
      try_transmit s ()
    end

  let rec recv_from s ~src =
    let ib = inbox_of s ~src in
    if Queue.is_empty ib.q then begin
      Sim.Condition.wait ib.ib_cond;
      recv_from s ~src
    end
    else Queue.pop ib.q

  let endpoint s ~peer =
    let ib = inbox_of s ~src:peer in
    {
      ep_send = (fun ~size msg -> send_to s ~dst:peer ~size msg);
      ep_recv = (fun () -> recv_from s ~src:peer);
      ep_pending = (fun () -> Queue.length ib.q);
    }

  let stats t = t.m_st
  let station_queue_wait s = s.s_queue_wait_us

  let utilization t =
    let now = Sim.Engine.now t.m_engine in
    if now = 0 then 0. else float_of_int t.m_st.busy_us /. float_of_int now

  let register_metrics t reg ~instance =
    let s = t.m_st in
    Sim.Metrics.register reg ~layer:"net" ~instance (fun () ->
        [
          ("stations", Sim.Metrics.Int t.nstations);
          ("frames_sent", Sim.Metrics.Int s.frames_sent);
          ("bytes_sent", Sim.Metrics.Int s.m_bytes_sent);
          ("frames_delivered", Sim.Metrics.Int s.frames_delivered);
          ("drops", Sim.Metrics.Int s.m_drops);
          ("delay_spikes", Sim.Metrics.Int s.m_spikes);
          ("contentions", Sim.Metrics.Int s.contentions);
          ("wire_busy_us", Sim.Metrics.Int s.busy_us);
          ("utilization", Sim.Metrics.Float (utilization t));
          ("queue_wait_us", Sim.Metrics.Summary s.m_queue_wait_us);
          ("transit_us", Sim.Metrics.Summary s.m_transit_us);
        ])
end

(* ---------- store-and-forward switch ---------- *)

module Switch = struct
  type sw_stats = {
    mutable frames_sent : int;
    mutable sw_bytes_sent : int;
    mutable frames_delivered : int;
    mutable sw_drops : int;  (** seeded uplink loss *)
    mutable overflows : int;  (** tail drops at full output buffers *)
    mutable sw_spikes : int;
    mutable occ_hwm : int;  (** worst output-buffer occupancy, any port *)
    sw_queue_wait_us : Sim.Stats.Summary.t;
        (** switch arrival -> downlink grant, all output ports *)
    sw_transit_us : Sim.Stats.Summary.t;  (** send -> delivery *)
  }

  type p_stats = {
    mutable up_frames : int;
    mutable up_bytes : int;
    mutable up_busy_us : int;  (** host->switch link occupancy *)
    mutable down_frames : int;
    mutable down_bytes : int;
    mutable down_busy_us : int;  (** switch->host link occupancy *)
    mutable p_drops : int;  (** uplink loss on this port *)
    mutable p_overflows : int;  (** frames tail-dropped at this output *)
    mutable p_occ_hwm : int;
    p_queue_wait_us : Sim.Stats.Summary.t;
  }

  type 'a frame = {
    src : int;
    f_dst : int;
    fsize : int;
    payload : 'a;
    enq_at : Sim.Time.t;  (** handed to the uplink *)
    mutable sw_at : Sim.Time.t;  (** accepted into the output buffer *)
  }

  type 'a inbox = { q : 'a Queue.t; ib_cond : Sim.Condition.t }

  type 'a t = {
    sw_engine : Sim.Engine.t;
    sw_cfg : config;
    buffer : int;  (** frames per output port *)
    sw_name : string;
    sw_rng : Sim.Rng.t;
    ports : (int, 'a port) Hashtbl.t;
    mutable nports : int;
    sw_st : sw_stats;
  }

  and 'a port = {
    sw : 'a t;
    pid : int;
    p_cpu : Sim.Cpu.t;
    (* uplink (host -> switch): a private serial wire, like one
       direction of a p2p link *)
    mutable up_free_at : Sim.Time.t;
    mutable up_last_arrival : Sim.Time.t;
    (* output buffer + downlink (switch -> host) *)
    eq : 'a frame Queue.t;
    mutable occupancy : int;
    mutable down_busy : bool;
    pst : p_stats;
    inboxes : (int, 'a inbox) Hashtbl.t;  (** keyed by source port *)
  }

  let create ?(seed = 0) ?(name = "switch") ?(buffer = 64) engine cfg =
    validate ~who:"Net.Switch.create" cfg;
    if buffer <= 0 then invalid_arg "Net.Switch.create: buffer must be > 0";
    {
      sw_engine = engine;
      sw_cfg = cfg;
      buffer;
      sw_name = name;
      sw_rng = Sim.Rng.create ~seed;
      ports = Hashtbl.create 16;
      nports = 0;
      sw_st =
        {
          frames_sent = 0;
          sw_bytes_sent = 0;
          frames_delivered = 0;
          sw_drops = 0;
          overflows = 0;
          sw_spikes = 0;
          occ_hwm = 0;
          sw_queue_wait_us = Sim.Stats.Summary.create ();
          sw_transit_us = Sim.Stats.Summary.create ();
        };
    }

  let attach t ~cpu =
    let p =
      {
        sw = t;
        pid = t.nports;
        p_cpu = cpu;
        up_free_at = Sim.Time.zero;
        up_last_arrival = Sim.Time.zero;
        eq = Queue.create ();
        occupancy = 0;
        down_busy = false;
        pst =
          {
            up_frames = 0;
            up_bytes = 0;
            up_busy_us = 0;
            down_frames = 0;
            down_bytes = 0;
            down_busy_us = 0;
            p_drops = 0;
            p_overflows = 0;
            p_occ_hwm = 0;
            p_queue_wait_us = Sim.Stats.Summary.create ();
          };
        inboxes = Hashtbl.create 4;
      }
    in
    Hashtbl.replace t.ports p.pid p;
    t.nports <- t.nports + 1;
    p

  let port_id p = p.pid

  let inbox_of p ~src =
    match Hashtbl.find_opt p.inboxes src with
    | Some ib -> ib
    | None ->
        let ib =
          {
            q = Queue.create ();
            ib_cond =
              Sim.Condition.create p.sw.sw_engine
                (Printf.sprintf "%s.p%d<-%d" p.sw.sw_name p.pid src);
          }
        in
        Hashtbl.replace p.inboxes src ib;
        ib

  (* The output-port pump: transmit the head frame over the private
     downlink, release the buffer slot when the wire falls silent, and
     deliver [latency] after that.  One serial downlink per port keeps
     delivery FIFO per output port regardless of which inputs the frames
     came from. *)
  let rec pump p () =
    let m = p.sw in
    match Queue.take_opt p.eq with
    | None -> p.down_busy <- false
    | Some fr ->
        let now = Sim.Engine.now m.sw_engine in
        let wait = now - fr.sw_at in
        Sim.Stats.Summary.add m.sw_st.sw_queue_wait_us (float_of_int wait);
        Sim.Stats.Summary.add p.pst.p_queue_wait_us (float_of_int wait);
        let xmit = xmit_time m.sw_cfg ~size:fr.fsize in
        p.pst.down_frames <- p.pst.down_frames + 1;
        p.pst.down_bytes <- p.pst.down_bytes + fr.fsize;
        p.pst.down_busy_us <- p.pst.down_busy_us + xmit;
        Sim.Engine.schedule m.sw_engine ~delay:xmit (fun () ->
            p.occupancy <- p.occupancy - 1;
            Sim.Engine.schedule m.sw_engine ~delay:m.sw_cfg.latency (fun () ->
                let ib = inbox_of p ~src:fr.src in
                Queue.push fr.payload ib.q;
                m.sw_st.frames_delivered <- m.sw_st.frames_delivered + 1;
                Sim.Stats.Summary.add m.sw_st.sw_transit_us
                  (float_of_int (Sim.Engine.now m.sw_engine - fr.enq_at));
                Sim.Condition.signal ib.ib_cond);
            pump p ())

  (* A frame has fully arrived over its uplink: store (or tail-drop) and
     forward.  Store-and-forward, no cut-through: the downlink can't
     start until the whole frame is in the buffer, which this callback's
     timing already guarantees. *)
  let accept t fr =
    match Hashtbl.find_opt t.ports fr.f_dst with
    | None -> ()  (* no such port: the bits fall on the floor *)
    | Some dst ->
        if dst.occupancy >= t.buffer then begin
          t.sw_st.overflows <- t.sw_st.overflows + 1;
          dst.pst.p_overflows <- dst.pst.p_overflows + 1
        end
        else begin
          dst.occupancy <- dst.occupancy + 1;
          if dst.occupancy > dst.pst.p_occ_hwm then
            dst.pst.p_occ_hwm <- dst.occupancy;
          if dst.occupancy > t.sw_st.occ_hwm then
            t.sw_st.occ_hwm <- dst.occupancy;
          fr.sw_at <- Sim.Engine.now t.sw_engine;
          Queue.push fr dst.eq;
          if not dst.down_busy then begin
            dst.down_busy <- true;
            pump dst ()
          end
        end

  let send_to p ~dst ~size payload =
    let m = p.sw in
    let cfg = m.sw_cfg in
    Sim.Cpu.charge p.p_cpu ~label:"net" (serialization_cpu cfg ~size);
    let now = Sim.Engine.now m.sw_engine in
    (* the port's private uplink: a serialization point, never contended
       by other hosts (full duplex: independent of the downlink) *)
    let start = max now p.up_free_at in
    let xmit = xmit_time cfg ~size in
    p.up_free_at <- start + xmit;
    p.pst.up_frames <- p.pst.up_frames + 1;
    p.pst.up_bytes <- p.pst.up_bytes + size;
    p.pst.up_busy_us <- p.pst.up_busy_us + xmit;
    m.sw_st.frames_sent <- m.sw_st.frames_sent + 1;
    m.sw_st.sw_bytes_sent <- m.sw_st.sw_bytes_sent + size;
    (* fault injection draws happen at send time, in send order: a run
       is a pure function of the switch seed and the traffic *)
    let dropped = cfg.loss > 0. && Sim.Rng.float m.sw_rng 1.0 < cfg.loss in
    let spiked =
      cfg.spike_prob > 0. && Sim.Rng.float m.sw_rng 1.0 < cfg.spike_prob
    in
    if spiked then m.sw_st.sw_spikes <- m.sw_st.sw_spikes + 1;
    if dropped then begin
      m.sw_st.sw_drops <- m.sw_st.sw_drops + 1;
      p.pst.p_drops <- p.pst.p_drops + 1
    end
    else begin
      let arrival =
        p.up_free_at + cfg.latency
        + (if spiked then cfg.spike else Sim.Time.zero)
      in
      (* FIFO per uplink: a spike holds later frames behind it *)
      let arrival = max arrival p.up_last_arrival in
      p.up_last_arrival <- arrival;
      let fr =
        { src = p.pid; f_dst = dst; fsize = size; payload; enq_at = now;
          sw_at = Sim.Time.zero }
      in
      Sim.Engine.schedule m.sw_engine ~delay:(arrival - now) (fun () ->
          accept m fr)
    end

  let rec recv_from p ~src =
    let ib = inbox_of p ~src in
    if Queue.is_empty ib.q then begin
      Sim.Condition.wait ib.ib_cond;
      recv_from p ~src
    end
    else Queue.pop ib.q

  let endpoint p ~peer =
    let ib = inbox_of p ~src:peer in
    {
      ep_send = (fun ~size msg -> send_to p ~dst:peer ~size msg);
      ep_recv = (fun () -> recv_from p ~src:peer);
      ep_pending = (fun () -> Queue.length ib.q);
    }

  let stats t = t.sw_st
  let port_stats p = p.pst

  let port_utilization p =
    let now = Sim.Engine.now p.sw.sw_engine in
    if now = 0 then 0.
    else
      float_of_int (max p.pst.up_busy_us p.pst.down_busy_us)
      /. float_of_int now

  let max_port_utilization t =
    Hashtbl.fold (fun _ p acc -> max acc (port_utilization p)) t.ports 0.

  let register_metrics t reg ~instance =
    let s = t.sw_st in
    Sim.Metrics.register reg ~layer:"net" ~instance (fun () ->
        [
          ("ports", Sim.Metrics.Int t.nports);
          ("buffer_frames", Sim.Metrics.Int t.buffer);
          ("frames_sent", Sim.Metrics.Int s.frames_sent);
          ("bytes_sent", Sim.Metrics.Int s.sw_bytes_sent);
          ("frames_delivered", Sim.Metrics.Int s.frames_delivered);
          ("drops", Sim.Metrics.Int s.sw_drops);
          ("overflow_drops", Sim.Metrics.Int s.overflows);
          ("delay_spikes", Sim.Metrics.Int s.sw_spikes);
          ("occupancy_hwm", Sim.Metrics.Int s.occ_hwm);
          ("max_port_utilization", Sim.Metrics.Float (max_port_utilization t));
          ("queue_wait_us", Sim.Metrics.Summary s.sw_queue_wait_us);
          ("transit_us", Sim.Metrics.Summary s.sw_transit_us);
        ])

  let register_port_metrics p reg ~instance =
    let s = p.pst in
    Sim.Metrics.register reg ~layer:"net" ~instance (fun () ->
        [
          ("up_frames", Sim.Metrics.Int s.up_frames);
          ("up_bytes", Sim.Metrics.Int s.up_bytes);
          ("up_busy_us", Sim.Metrics.Int s.up_busy_us);
          ("down_frames", Sim.Metrics.Int s.down_frames);
          ("down_bytes", Sim.Metrics.Int s.down_bytes);
          ("down_busy_us", Sim.Metrics.Int s.down_busy_us);
          ("drops", Sim.Metrics.Int s.p_drops);
          ("overflow_drops", Sim.Metrics.Int s.p_overflows);
          ("occupancy_hwm", Sim.Metrics.Int s.p_occ_hwm);
          ("utilization", Sim.Metrics.Float (port_utilization p));
          ("queue_wait_us", Sim.Metrics.Summary s.p_queue_wait_us);
        ])
end
