module Heap = Xdp_util.Heap
module Board = Xdp_sim.Board
module Costmodel = Xdp_sim.Costmodel
module Trace = Xdp_sim.Trace

exception Link_failed of string

type config = { timeout : float; max_retries : int }

let default_config = { timeout = 12_000.0; max_retries = 20 }

(* retransmit timeout multiplier per retry, and acknowledgement size on
   the wire *)
let backoff = 1.5
let ack_bytes = 16

type failure = {
  f_src : int;
  f_dst : int;
  f_name : string;
  f_attempts : int;
}

(* One matched (send, receive) pair in transit.  The board's
   fault-free delivery is kept as the flight's [base]: its [depart] is
   attempt 0's departure, its [arrival] the earliest instant the
   receiver can consume the payload (receiver readiness is folded in
   by the board's rendezvous rule), and its [seq] doubles as the
   transport sequence number for receiver-side dedup. *)
type flight = {
  base : Board.delivery;
  wire : float; (* one-way data time on this link, slowdown applied *)
  mutable attempts : int; (* packets launched so far *)
  mutable acks_sent : int;
  mutable delivered : bool;
  mutable acked : bool;
  mutable failed : bool;
}

type what =
  | Data_arrive of flight
  | Ack_arrive of flight
  | Timer of flight * int (* attempt the timer was armed for *)

type ev = { at : float; eid : int; what : what }

type t = {
  board : Board.t;
  cost : Costmodel.t;
  plan : Faultplan.t;
  direct : bool; (* [Faultplan.none]: the board's deliveries go straight up *)
  cfg : config;
  tr : Trace.t;
  events : ev Heap.t;
  out : Board.delivery Heap.t; (* deliveries ready for the executor *)
  mutable eid : int;
  mutable failures : failure list;
  mutable retransmits : int;
  mutable acks : int;
  mutable dup_suppressed : int;
  mutable dropped : int;
  mutable overhead_bytes : int;
}

let cmp_ev a b =
  let c = Float.compare a.at b.at in
  if c <> 0 then c else Int.compare a.eid b.eid

let cmp_out (a : Board.delivery) (b : Board.delivery) =
  let c = Float.compare a.arrival b.arrival in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ~config ~plan ~trace board ~cost =
  if config.timeout <= 0.0 then invalid_arg "Transport: timeout <= 0";
  if config.max_retries < 0 then invalid_arg "Transport: max_retries < 0";
  {
    board;
    cost;
    plan;
    direct = Faultplan.is_none plan;
    cfg = config;
    tr = trace;
    events = Heap.create ~cmp:cmp_ev ();
    out = Heap.create ~cmp:cmp_out ();
    eid = 0;
    failures = [];
    retransmits = 0;
    acks = 0;
    dup_suppressed = 0;
    dropped = 0;
    overhead_bytes = 0;
  }

let schedule t at what =
  let e = { at; eid = t.eid; what } in
  t.eid <- t.eid + 1;
  Heap.push t.events e

let give_up t (f : flight) =
  (* Retries exhausted.  If the data never landed this is a link
     failure the executor must surface; if only the acks were lost the
     receiver already has the payload and the sender merely stops. *)
  if not f.delivered then begin
    f.failed <- true;
    t.failures <-
      {
        f_src = f.base.src;
        f_dst = f.base.dst;
        f_name = f.base.name;
        f_attempts = f.attempts;
      }
      :: t.failures
  end

(* Put attempt [k] of flight [f] on the wire at time [now]. *)
let launch t (f : flight) k ~now =
  let { Board.src; dst; name; bytes; _ } = f.base in
  f.attempts <- k + 1;
  if k > 0 then begin
    t.retransmits <- t.retransmits + 1;
    t.overhead_bytes <- t.overhead_bytes + bytes;
    Trace.emit t.tr
      (Trace.Retransmit { time = now; src; dst; name; attempt = k })
  end;
  let msg = f.base.seq in
  let lost =
    Faultplan.crashed t.plan ~pid:src ~time:now
    || Faultplan.drops_packet t.plan ~src ~dst ~msg ~attempt:k ~ack:false
  in
  if lost then begin
    t.dropped <- t.dropped + 1;
    Trace.emit t.tr
      (Trace.Dropped { time = now; src; dst; name; attempt = k; what = "data" })
  end
  else begin
    let arrive raw =
      let phys = Faultplan.stall_release t.plan ~pid:dst raw in
      if Faultplan.crashed t.plan ~pid:dst ~time:phys then begin
        t.dropped <- t.dropped + 1;
        Trace.emit t.tr
          (Trace.Dropped
             { time = phys; src; dst; name; attempt = k; what = "data" })
      end
      else schedule t phys (Data_arrive f)
    in
    let phys =
      now +. f.wire
      +. Faultplan.jitter_delay t.plan ~src ~dst ~msg ~attempt:k
           ~scale:f.wire
    in
    arrive phys;
    if Faultplan.duplicates t.plan ~src ~dst ~msg ~attempt:k then
      (* the duplicate trails its original by an independent jitter *)
      arrive
        (phys
        +. Faultplan.jitter_delay t.plan ~src ~dst ~msg ~attempt:(k + 512)
             ~scale:(Float.max f.wire 1.0))
  end;
  schedule t
    (now +. (t.cfg.timeout *. (backoff ** float_of_int k)))
    (Timer (f, k))

let send_ack t (f : flight) ~now =
  let { Board.src; dst; name; _ } = f.base in
  t.acks <- t.acks + 1;
  t.overhead_bytes <- t.overhead_bytes + ack_bytes;
  Trace.emit t.tr (Trace.Ack { time = now; src; dst; name });
  let k = f.acks_sent in
  f.acks_sent <- k + 1;
  (* the ack travels dst -> src and can be lost like any packet *)
  let lost =
    Faultplan.crashed t.plan ~pid:dst ~time:now
    || Faultplan.drops_packet t.plan ~src:dst ~dst:src ~msg:f.base.seq
         ~attempt:k ~ack:true
  in
  if lost then begin
    t.dropped <- t.dropped + 1;
    Trace.emit t.tr
      (Trace.Dropped { time = now; src; dst; name; attempt = k; what = "ack" })
  end
  else begin
    let rev = Faultplan.link t.plan ~src:dst ~dst:src in
    let wire =
      Costmodel.transfer_time t.cost ~bytes:ack_bytes *. rev.slowdown
    in
    let at = Faultplan.stall_release t.plan ~pid:src (now +. wire) in
    if Faultplan.crashed t.plan ~pid:src ~time:at then begin
      t.dropped <- t.dropped + 1;
      Trace.emit t.tr
        (Trace.Dropped { time = at; src; dst; name; attempt = k; what = "ack" })
    end
    else schedule t at (Ack_arrive f)
  end

let process t (e : ev) =
  match e.what with
  | Data_arrive f ->
      if f.delivered then begin
        (* sequence-number dedup: the payload already went up; just
           re-ack so the sender can stop retransmitting *)
        t.dup_suppressed <- t.dup_suppressed + 1;
        Trace.emit t.tr
          (Trace.Duped
             {
               time = e.at;
               src = f.base.src;
               dst = f.base.dst;
               name = f.base.name;
             })
      end
      else begin
        f.delivered <- true;
        (* deliverable no earlier than the rendezvous arrival — the
           receiver may not have posted its receive yet *)
        Heap.push t.out
          { f.base with arrival = Float.max e.at f.base.arrival }
      end;
      send_ack t f ~now:e.at
  | Ack_arrive f -> f.acked <- true
  | Timer (f, k) ->
      (* only the latest attempt's timer is live *)
      if (not f.acked) && (not f.failed) && f.attempts = k + 1 then
        if k + 1 > t.cfg.max_retries then give_up t f
        else launch t f (k + 1) ~now:e.at

(* Advance the internal event simulation until the earliest executor
   delivery is known: an event at time [at] can only create deliveries
   at or after [at], so once the next event lies beyond the head of
   [out] nothing can preempt it.  Flight timelines are independent, so
   running ahead of the executor's clocks is safe. *)
let rec settle t =
  match Heap.peek t.events with
  | None -> ()
  | Some e -> (
      match Heap.peek t.out with
      | Some (d : Board.delivery) when e.at > d.arrival -> ()
      | _ ->
          ignore (Heap.pop t.events);
          process t e;
          settle t)

(* Matched rendezvous pairs leave the board and become flights. *)
let rec intake t =
  match Board.pop_delivery t.board with
  | None -> ()
  | Some base ->
      let l = Faultplan.link t.plan ~src:base.src ~dst:base.dst in
      let wire =
        Costmodel.transfer_time t.cost ~bytes:base.bytes *. l.slowdown
      in
      let f =
        {
          base;
          wire;
          attempts = 0;
          acks_sent = 0;
          delivered = false;
          acked = false;
          failed = false;
        }
      in
      launch t f 0 ~now:base.depart;
      intake t

(* Under [Faultplan.none] the board's deliveries are the executor's:
   nothing is launched, so no event, counter or failure ever moves. *)
let post_send t ~time ~src ~name ~kind ~payload ~directed =
  Board.post_send t.board ~time ~src ~name ~kind ~payload ~directed;
  if not t.direct then intake t

let post_recv t ~time ~dst ~name ~kind ~token =
  Board.post_recv t.board ~time ~dst ~name ~kind ~token;
  if not t.direct then intake t

let has_delivery t =
  if t.direct then Board.has_delivery t.board
  else (
    settle t;
    not (Heap.is_empty t.out))

let peek_delivery t =
  if t.direct then Board.peek_delivery t.board
  else (
    settle t;
    Heap.peek t.out)

let pop_delivery t =
  if t.direct then Board.pop_delivery t.board
  else (
    settle t;
    Heap.pop t.out)

let failures t =
  settle t;
  List.rev t.failures

let retransmits t = t.retransmits
let acks t = t.acks
let dup_suppressed t = t.dup_suppressed
let packets_dropped t = t.dropped
let overhead_bytes t = t.overhead_bytes

let pp_failure ppf f =
  Format.fprintf ppf "P%d -> P%d %s lost after %d attempts" (f.f_src + 1)
    (f.f_dst + 1) f.f_name f.f_attempts
