module Heap = Xdp_util.Heap

type kind = Value | Owner | Owner_value

exception Mismatch of string

let kind_to_string = function
  | Value -> "value"
  | Owner -> "ownership"
  | Owner_value -> "ownership+value"

type delivery = {
  arrival : float;
  depart : float;
  seq : int;
  src : int;
  dst : int;
  name : string;
  kind : kind;
  payload : float array;
  bytes : int;
  token : int;
}

type send = {
  s_seq : int;
  s_time : float; (* departure time: initiation, plus NIC queueing *)
  s_src : int;
  s_kind : kind;
  s_payload : float array;
  s_dst : int option; (* None = unspecified destination *)
}

type recv = {
  r_seq : int;
  r_time : float;
  r_dst : int;
  r_kind : kind;
  r_token : int;
}

(* Pending sends for one name. A send is directed to at most one
   destination (broadcasts are expanded before posting), so it lives
   in exactly one FIFO: [s_any] for undirected sends, [s_to.(dst)] for
   directed ones. A receive by [dst] considers only the two queue
   fronts — the earliest undirected send and the earliest send
   directed at [dst] — and takes the lower [s_seq]: amortized O(1)
   where the seed scanned the whole pending list. *)
type send_q = {
  s_any : send Queue.t;
  s_to : (int, send Queue.t) Hashtbl.t;
}

(* Pending receives for one name. An undirected send matches the
   earliest receive of the name anywhere; a directed send matches the
   earliest receive by its destination. Each receive is therefore
   enqueued in both [r_all] and [r_by.(dst)], and removal from one
   index marks the [r_seq] in [r_gone] so the stale copy is discarded
   lazily when it surfaces at the other front (each receive is marked
   once and skipped once — amortized O(1)). *)
type recv_q = {
  r_all : recv Queue.t;
  r_by : (int, recv Queue.t) Hashtbl.t;
  r_gone : (int, unit) Hashtbl.t;
}

type t = {
  cost : Costmodel.t;
  sends : (string, send_q) Hashtbl.t;
  recvs : (string, recv_q) Hashtbl.t;
  deliveries : delivery Heap.t; (* min-heap on (arrival, seq) *)
  mutable seq : int;
  mutable matched : int;
  mutable bytes : int;
  nic_free : (int, float) Hashtbl.t; (* per-src NIC availability *)
  (* Per-processor in-flight byte occupancy: a message's wire bytes
     are charged to the source when the send is posted, to the
     destination when it is matched into a delivery, and released from
     both when the delivery is popped.  Indexed by pid, grown on
     demand (the board does not know the machine size). *)
  mutable occ : int array;
  mutable occ_peak : int array;
}

let cmp_delivery a b =
  let c = Float.compare a.arrival b.arrival in
  if c <> 0 then c else Int.compare a.seq b.seq

let create cost =
  {
    cost;
    sends = Hashtbl.create 64;
    recvs = Hashtbl.create 64;
    deliveries = Heap.create ~cmp:cmp_delivery ();
    seq = 0;
    matched = 0;
    bytes = 0;
    nic_free = Hashtbl.create 16;
    occ = [||];
    occ_peak = [||];
  }

let occ_add t pid bytes =
  let n = Array.length t.occ in
  if pid >= n then begin
    let n' = max (pid + 1) (max 16 (2 * n)) in
    let grow a =
      let b = Array.make n' 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.occ <- grow t.occ;
    t.occ_peak <- grow t.occ_peak
  end;
  let v = t.occ.(pid) + bytes in
  t.occ.(pid) <- v;
  if v > t.occ_peak.(pid) then t.occ_peak.(pid) <- v

let occ_sub t pid bytes =
  if pid < Array.length t.occ then t.occ.(pid) <- t.occ.(pid) - bytes

(* Wire bytes of a send, known at post time and charged again at
   match by [make_delivery].  Directed sends were bound at compile
   time, so the name tag need not travel (paper, footnote 2): the
   destination decides the header, the kind decides the payload. *)
let send_bytes (cost : Costmodel.t) ~kind ~payload ~dst =
  let header =
    match dst with Some _ -> 0 | None -> cost.Costmodel.header_bytes
  in
  let p =
    if kind = Owner then 0
    else Array.length payload * cost.Costmodel.elem_bytes
  in
  p + header

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let send_queue t name =
  match Hashtbl.find_opt t.sends name with
  | Some q -> q
  | None ->
      let q = { s_any = Queue.create (); s_to = Hashtbl.create 4 } in
      Hashtbl.add t.sends name q;
      q

let recv_queue t name =
  match Hashtbl.find_opt t.recvs name with
  | Some q -> q
  | None ->
      let q =
        {
          r_all = Queue.create ();
          r_by = Hashtbl.create 4;
          r_gone = Hashtbl.create 4;
        }
      in
      Hashtbl.add t.recvs name q;
      q


let sub_queue tbl key =
  match Hashtbl.find_opt tbl key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add tbl key q;
      q

(* Drop receives already consumed through the other index, then peek. *)
let rec live_front rq q =
  match Queue.peek_opt q with
  | Some r when Hashtbl.mem rq.r_gone r.r_seq ->
      ignore (Queue.pop q);
      Hashtbl.remove rq.r_gone r.r_seq;
      live_front rq q
  | front -> front

(* Earliest pending receive eligible for a send with destination
   [dst]; removes it from the queues. *)
let take_recv rq ~dst =
  let take q =
    match live_front rq q with
    | None -> None
    | Some r ->
        ignore (Queue.pop q);
        Hashtbl.add rq.r_gone r.r_seq ();
        Some r
  in
  match dst with
  | None -> take rq.r_all
  | Some d -> (
      match Hashtbl.find_opt rq.r_by d with
      | None -> None
      | Some q -> take q)

let push_recv rq r =
  Queue.push r rq.r_all;
  Queue.push r (sub_queue rq.r_by r.r_dst)

(* Earliest pending send eligible for a receive by [dst]: the lower
   [s_seq] of the undirected front and the front directed at [dst]. *)
let take_send sq ~dst =
  let directed = Hashtbl.find_opt sq.s_to dst in
  let front q = Queue.peek_opt q in
  match (front sq.s_any, Option.bind directed front) with
  | None, None -> None
  | Some _, None -> Some (Queue.pop sq.s_any)
  | None, Some _ -> Some (Queue.pop (Option.get directed))
  | Some a, Some d ->
      if a.s_seq < d.s_seq then Some (Queue.pop sq.s_any)
      else Some (Queue.pop (Option.get directed))

let check_kind name expected actual =
  if expected <> actual then
    raise
      (Mismatch
         (Printf.sprintf
            "section %s: %s send matched against %s receive (compiler must \
             generate matching pairs)"
            name (kind_to_string expected) (kind_to_string actual)))

let insert_delivery t d = Heap.push t.deliveries d

let make_delivery t ~name (s : send) (r : recv) =
  check_kind name s.s_kind r.r_kind;
  let bytes =
    send_bytes t.cost ~kind:s.s_kind ~payload:s.s_payload ~dst:s.s_dst
  in
  let arrival =
    Float.max (s.s_time +. Costmodel.transfer_time t.cost ~bytes) r.r_time
  in
  t.matched <- t.matched + 1;
  t.bytes <- t.bytes + bytes;
  occ_add t r.r_dst bytes;
  insert_delivery t
    {
      arrival;
      depart = s.s_time;
      seq = next_seq t;
      src = s.s_src;
      dst = r.r_dst;
      name;
      kind = s.s_kind;
      payload = s.s_payload;
      bytes;
      token = r.r_token;
    }

let post_one_send t ~time ~src ~name ~kind ~payload ~dst =
  (* With a serializing NIC the message departs only when the sender's
     interface is free, and occupies it for its transmission time. *)
  let depart =
    if not t.cost.Costmodel.nic_serialize then time
    else begin
      let payload_bytes =
        if kind = Owner then 0
        else Array.length payload * t.cost.Costmodel.elem_bytes
      in
      let free =
        Option.value (Hashtbl.find_opt t.nic_free src) ~default:0.0
      in
      let start = Float.max time free in
      Hashtbl.replace t.nic_free src
        (start +. (t.cost.Costmodel.beta *. float_of_int payload_bytes));
      start
    end
  in
  let s =
    { s_seq = next_seq t; s_time = depart; s_src = src; s_kind = kind;
      s_payload = payload; s_dst = dst }
  in
  occ_add t src (send_bytes t.cost ~kind ~payload ~dst);
  let rq = recv_queue t name in
  match take_recv rq ~dst with
  | Some r -> make_delivery t ~name s r
  | None ->
      let sq = send_queue t name in
      (match dst with
      | None -> Queue.push s sq.s_any
      | Some d -> Queue.push s (sub_queue sq.s_to d))

let post_send t ~time ~src ~name ~kind ~payload ~directed =
  match directed with
  | None -> post_one_send t ~time ~src ~name ~kind ~payload ~dst:None
  | Some [] -> invalid_arg "Board.post_send: empty destination set"
  | Some dsts ->
      List.iter
        (fun d ->
          post_one_send t ~time ~src ~name ~kind
            ~payload:(Array.copy payload) ~dst:(Some d))
        dsts

let post_recv t ~time ~dst ~name ~kind ~token =
  let r =
    { r_seq = next_seq t; r_time = time; r_dst = dst; r_kind = kind;
      r_token = token }
  in
  let sq = send_queue t name in
  match take_send sq ~dst with
  | Some s -> make_delivery t ~name s r
  | None -> push_recv (recv_queue t name) r

let has_delivery t = not (Heap.is_empty t.deliveries)
let peek_delivery t = Heap.peek t.deliveries

let pop_delivery t =
  match Heap.pop t.deliveries with
  | None -> None
  | Some d ->
      occ_sub t d.src d.bytes;
      occ_sub t d.dst d.bytes;
      Some d

(* Pending queries preserve the seed's output exactly: every waiting
   operation, projected and sorted by [compare]. Linear in the number
   of pending operations — diagnostics only, never on the hot path. *)
let pending_sends t =
  Hashtbl.fold
    (fun name sq acc ->
      let proj (s : send) acc = (name, s.s_kind, s.s_src) :: acc in
      let acc = Queue.fold (fun acc s -> proj s acc) acc sq.s_any in
      Hashtbl.fold
        (fun _ q acc -> Queue.fold (fun acc s -> proj s acc) acc q)
        sq.s_to acc)
    t.sends []
  |> List.sort compare

let pending_recvs t =
  Hashtbl.fold
    (fun name rq acc ->
      (* [r_all] holds every live receive (plus lazily-discarded
         duplicates, filtered by [r_gone]). *)
      Queue.fold
        (fun acc (r : recv) ->
          if Hashtbl.mem rq.r_gone r.r_seq then acc
          else (name, r.r_kind, r.r_dst) :: acc)
        acc rq.r_all)
    t.recvs []
  |> List.sort compare

let messages_matched t = t.matched
let bytes_matched t = t.bytes
let peak_inflight t = Array.copy t.occ_peak
