type transport = Fixed | Adaptive

type stats = {
  mutable calls : int;
  mutable retransmits : int;
  mutable late_replies : int;
}

type pending = {
  mutable reply : Proto.reply option;
  mutable cost : (string * Sim.Time.t) list;
  mutable spans : Sim.Span.t option;  (** server-side span subtree *)
  mutable wake : (unit -> unit) option;
  mutable retransmitted : bool;
}

(* The congestion/timer state of one {e server channel}: RTT estimator,
   RTO, AIMD window, in-flight count and the window wait queue.  It is a
   separate heap object so several [t]s — one per mount — can share it
   when they target the same server: the window then bounds the union of
   their outstanding calls and every mount feeds (and benefits from) one
   estimator, the way a real client shares one transport handle per
   server rather than per mount. *)
type cstate = {
  cs_timeout : Sim.Time.t;
  cs_max_timeout : Sim.Time.t;
  cs_min_rto : Sim.Time.t;
  cs_cwnd_limit : float;
  mutable srtt : float;  (** us; negative until the first valid sample *)
  mutable rttvar : float;
  mutable rto : Sim.Time.t;  (** current RTO, Karn backoff included *)
  mutable cwnd : float;
  mutable in_flight : int;
  mutable next_decrease_at : Sim.Time.t;
  mutable backoffs : int;
  window_wait_us : Sim.Stats.Summary.t;
  win_cond : Sim.Condition.t;
}

let make_cstate engine ~timeout ~max_timeout ~min_rto ~cwnd_limit ~name =
  {
    cs_timeout = timeout;
    cs_max_timeout = max_timeout;
    cs_min_rto = min_rto;
    cs_cwnd_limit = cwnd_limit;
    srtt = -1.;
    rttvar = 0.;
    rto = timeout;
    cwnd = 2.;
    in_flight = 0;
    next_decrease_at = Sim.Time.zero;
    backoffs = 0;
    window_wait_us = Sim.Stats.Summary.create ();
    win_cond = Sim.Condition.create engine name;
  }

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  ep : Proto.msg Net.endpoint;
  id : int;
  transport : transport;
  cs : cstate;  (** shared with other mounts to the same server, or private *)
  mutable next_xid : int;
  pending : (int, pending) Hashtbl.t;
  st : stats;
  op_calls : (string, int ref) Hashtbl.t;
  op_rtt : (string, Sim.Stats.Summary.t) Hashtbl.t;
  mutable retrans_log : Sim.Time.t list;  (** newest first *)
}

let create engine ~cpu ~ep ~client_id ?(transport = Fixed)
    ?(timeout = Sim.Time.of_ms_float 1100.) ?(max_timeout = Sim.Time.sec 20)
    ?(min_rto = Sim.Time.ms 200) ?(cwnd_limit = 8.) ?cstate () =
  let cs =
    match cstate with
    | Some cs -> cs
    | None ->
        make_cstate engine ~timeout ~max_timeout ~min_rto ~cwnd_limit
          ~name:(Printf.sprintf "rpc.win.%d" client_id)
  in
  let t =
    {
      engine;
      cpu;
      ep;
      id = client_id;
      transport;
      cs;
      next_xid = 1;
      pending = Hashtbl.create 32;
      st = { calls = 0; retransmits = 0; late_replies = 0 };
      op_calls = Hashtbl.create 8;
      op_rtt = Hashtbl.create 8;
      retrans_log = [];
    }
  in
  List.iter
    (fun op ->
      Hashtbl.replace t.op_calls op (ref 0);
      Hashtbl.replace t.op_rtt op (Sim.Stats.Summary.create ()))
    Proto.op_names;
  Sim.Engine.spawn engine ~name:(Printf.sprintf "rpc.recv.%d" client_id)
    (fun () ->
      while true do
        match Net.recv t.ep with
        | Proto.Reply { xid; reply; cost; spans; _ } -> (
            match Hashtbl.find_opt t.pending xid with
            | Some p ->
                Hashtbl.remove t.pending xid;
                p.reply <- Some reply;
                p.cost <- cost;
                p.spans <- spans;
                (match p.wake with Some w -> w () | None -> ())
            | None -> t.st.late_replies <- t.st.late_replies + 1)
        | Proto.Call _ -> assert false
      done);
  t

let client_id t = t.id
let transport t = t.transport

(* Park the caller until the reply lands or [timeout] passes, whichever
   first; both wakers funnel through a fire-once guard because resuming
   a parked process twice is an engine error.  The reply may already
   have landed while [Net.send]'s CPU charge yielded — with no waker
   registered yet the receiver couldn't wake us, so suspending then
   would sleep the whole timeout on top of an answered call.  When the
   reply wins the race the timeout timer is cancelled, releasing its
   closure — otherwise every answered call would pin a dead event in
   the engine heap for the full retransmission interval. *)
let wait_reply_or_timeout t (p : pending) ~timeout =
  if p.reply = None then begin
    let timer = ref None in
    Sim.Engine.suspend t.engine ~register:(fun resume ->
        let fired = ref false in
        let once () =
          if not !fired then begin
            fired := true;
            resume ()
          end
        in
        p.wake <- Some once;
        timer := Some (Sim.Engine.schedule_cancellable t.engine ~delay:timeout once));
    p.wake <- None;
    if p.reply <> None then Option.iter Sim.Engine.cancel !timer
  end

let finish_call t (call : Proto.call) ~t0 r =
  (* reply deserialization + wakeup dispatch on the client CPU *)
  Sim.Cpu.charge t.cpu ~label:"rpc" (Sim.Time.us 30);
  let op = Proto.op_name call in
  incr (Hashtbl.find t.op_calls op);
  Sim.Stats.Summary.add (Hashtbl.find t.op_rtt op)
    (float_of_int (Sim.Engine.now t.engine - t0));
  r

let mk_pending t xid =
  let p =
    { reply = None; cost = []; spans = None; wake = None; retransmitted = false }
  in
  Hashtbl.replace t.pending xid p;
  p

(* Charge the caller's attribution clock (if any) with this call's life:
   the server's phase breakdown from the reply, inbound wire time from
   the server's transmit stamp, congestion-window wait, and whatever is
   left of the blocked interval (timeout slack, retransmit waits, send
   CPU) as generic RPC wait.  Every addition is capped at the remaining
   un-attributed blocked time, so the phases can never sum past what
   the caller actually waited. *)
let charge_cost t ~entry ~window_wait (p : pending) =
  match Sim.Attrib.current () with
  | None -> ()
  | Some clk ->
      let now = Sim.Engine.now t.engine in
      let elapsed = now - entry in
      let charged = ref 0 in
      let add phase d =
        let d = min (max 0 d) (elapsed - !charged) in
        if d > 0 then begin
          Sim.Attrib.charge clk phase d;
          charged := !charged + d
        end
      in
      add "rpc.wait" window_wait;
      List.iter
        (fun (k, v) ->
          if k = "wire.out" then add "wire" v
          else if k <> "srv.sent_at" then add k v)
        p.cost;
      (match List.assoc_opt "srv.sent_at" p.cost with
      | Some sent_at -> add "wire" (now - sent_at)
      | None -> ());
      add "rpc.wait" (elapsed - !charged)

let note_retransmit t p =
  t.st.retransmits <- t.st.retransmits + 1;
  t.retrans_log <- Sim.Engine.now t.engine :: t.retrans_log;
  p.retransmitted <- true

(* Reply-side tracing: the server's span subtree (shipped back in the
   reply, parented under this call's RPC span by construction) is
   grafted into the caller's tree, and the inbound wire leg gets its
   own interval from the server's transmit stamp.  Pure bookkeeping:
   nothing here reads or advances simulated time paths. *)
let trace_reply t (p : pending) ~attempts =
  if Sim.Span.enabled () then begin
    (match p.spans with Some sub -> Sim.Span.graft sub | None -> ());
    (match List.assoc_opt "srv.sent_at" p.cost with
    | Some sent_at ->
        Sim.Span.interval ~name:"wire.reply" ~track:"net/wire"
          ~start_us:sent_at
          ~stop_us:(Sim.Engine.now t.engine)
          ()
    | None -> ());
    if attempts > 1 then Sim.Span.add_attr "attempts" (Sim.Span.I attempts)
  end

(* ---------- fixed-timeout transport (the NFSv2 default) ---------- *)

let call_fixed_body t (call : Proto.call) =
  let xid = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  t.st.calls <- t.st.calls + 1;
  Sim.Span.add_attr "xid" (Sim.Span.I xid);
  let size = Proto.call_size call in
  let p = mk_pending t xid in
  let t0 = Sim.Engine.now t.engine in
  let timeout = ref t.cs.cs_timeout in
  let attempts = ref 0 in
  let rec attempt ~retry =
    if retry then note_retransmit t p;
    incr attempts;
    let send_at = Sim.Engine.now t.engine in
    Net.send t.ep ~size
      (Proto.Call
         { xid; client = t.id; call; sent = send_at; span = Sim.Span.ctx () });
    wait_reply_or_timeout t p ~timeout:!timeout;
    match p.reply with
    | Some r -> r
    | None ->
        Sim.Span.interval ~name:"rpc.rto"
          ~attrs:[ ("attempt", Sim.Span.I !attempts) ]
          ~start_us:send_at
          ~stop_us:(Sim.Engine.now t.engine)
          ();
        timeout := min (!timeout * 2) t.cs.cs_max_timeout;
        attempt ~retry:true
  in
  let r = attempt ~retry:false in
  trace_reply t p ~attempts:!attempts;
  charge_cost t ~entry:t0 ~window_wait:0 p;
  finish_call t call ~t0 r

let call_fixed t (call : Proto.call) =
  Sim.Span.span
    ~name:("rpc." ^ Proto.op_name call)
    (fun () -> call_fixed_body t call)

(* ---------- adaptive transport (Jacobson/Karn + AIMD window) ---------- *)

let window cs = max 1 (int_of_float cs.cwnd)

let clamp_rto cs v = max cs.cs_min_rto (min v cs.cs_max_timeout)

(* Valid (un-retransmitted, Karn) samples drive the standard
   srtt/rttvar estimator: srtt += err/8, rttvar += (|err|-rttvar)/4,
   rto = srtt + 4*rttvar — and recomputing rto here is also what
   retires a Karn backoff once a clean exchange proves the network. *)
let sample_rtt cs rtt =
  let sample = float_of_int rtt in
  if cs.srtt < 0. then begin
    cs.srtt <- sample;
    cs.rttvar <- sample /. 2.
  end
  else begin
    let err = sample -. cs.srtt in
    cs.srtt <- cs.srtt +. (err /. 8.);
    cs.rttvar <- cs.rttvar +. ((Float.abs err -. cs.rttvar) /. 4.)
  end;
  cs.rto <- clamp_rto cs (int_of_float (cs.srtt +. (4. *. cs.rttvar)))

let call_adaptive_body t (call : Proto.call) =
  let cs = t.cs in
  (* congestion window: bound the channel's outstanding RPCs across
     every mount sharing this cstate *)
  let entry = Sim.Engine.now t.engine in
  while cs.in_flight >= window cs do
    Sim.Condition.wait cs.win_cond
  done;
  let waited = Sim.Engine.now t.engine - entry in
  if waited > 0 then begin
    Sim.Stats.Summary.add cs.window_wait_us (float_of_int waited);
    Sim.Span.interval ~name:"rpc.window" ~start_us:entry
      ~stop_us:(Sim.Engine.now t.engine)
      ()
  end;
  cs.in_flight <- cs.in_flight + 1;
  let xid = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  t.st.calls <- t.st.calls + 1;
  Sim.Span.add_attr "xid" (Sim.Span.I xid);
  let size = Proto.call_size call in
  let p = mk_pending t xid in
  let t0 = Sim.Engine.now t.engine in
  let cur = ref cs.rto in
  let attempts = ref 0 in
  let rec attempt ~retry =
    if retry then note_retransmit t p;
    incr attempts;
    let send_at = Sim.Engine.now t.engine in
    Net.send t.ep ~size
      (Proto.Call
         { xid; client = t.id; call; sent = send_at; span = Sim.Span.ctx () });
    wait_reply_or_timeout t p ~timeout:!cur;
    match p.reply with
    | Some r -> r
    | None ->
        (* timeout: exponential backoff for this call, published as the
           channel RTO (Karn: the backed-off value holds until a clean
           sample), and a multiplicative window decrease at most once
           per RTO so one loss burst doesn't zero the window *)
        Sim.Span.interval ~name:"rpc.rto"
          ~attrs:[ ("attempt", Sim.Span.I !attempts) ]
          ~start_us:send_at
          ~stop_us:(Sim.Engine.now t.engine)
          ();
        cs.backoffs <- cs.backoffs + 1;
        cur := min (!cur * 2) cs.cs_max_timeout;
        cs.rto <- max cs.rto !cur;
        let now = Sim.Engine.now t.engine in
        if now >= cs.next_decrease_at then begin
          cs.cwnd <- Float.max 1. (cs.cwnd /. 2.);
          cs.next_decrease_at <- now + !cur
        end;
        attempt ~retry:true
  in
  let r = attempt ~retry:false in
  if not p.retransmitted then begin
    sample_rtt cs (Sim.Engine.now t.engine - t0);
    (* additive increase on clean replies only *)
    cs.cwnd <- Float.min cs.cs_cwnd_limit (cs.cwnd +. (1. /. cs.cwnd))
  end;
  cs.in_flight <- cs.in_flight - 1;
  Sim.Condition.signal cs.win_cond;
  trace_reply t p ~attempts:!attempts;
  charge_cost t ~entry ~window_wait:waited p;
  finish_call t call ~t0 r

let call_adaptive t (call : Proto.call) =
  Sim.Span.span
    ~name:("rpc." ^ Proto.op_name call)
    (fun () -> call_adaptive_body t call)

let call t (call : Proto.call) =
  match t.transport with
  | Fixed -> call_fixed t call
  | Adaptive -> call_adaptive t call

(* ---------- observability ---------- *)

let stats t = t.st
let op_calls t op = match Hashtbl.find_opt t.op_calls op with Some r -> !r | None -> 0

let rtt_of t op =
  match Hashtbl.find_opt t.op_rtt op with
  | Some s -> s
  | None -> Sim.Stats.Summary.create ()

let srtt_us t = if t.cs.srtt < 0. then 0. else t.cs.srtt
let rto_us t = float_of_int t.cs.rto
let cwnd t = match t.transport with Fixed -> 0. | Adaptive -> t.cs.cwnd
let in_flight t = t.cs.in_flight
let backoffs t = t.cs.backoffs
let window_wait_us t = t.cs.window_wait_us
let cstate_of t = t.cs
let shares_cstate a b = a.cs == b.cs

let retransmits_since t since =
  List.length (List.filter (fun at -> at >= since) t.retrans_log)
