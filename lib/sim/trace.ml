type event =
  | Send_init of { time : float; pid : int; name : string; kind : string }
  | Recv_init of { time : float; pid : int; name : string; kind : string }
  | Delivered of {
      time : float;
      src : int;
      dst : int;
      name : string;
      kind : string;
      bytes : int;
    }
  | Blocked of { time : float; pid : int; on : string }
  | Unblocked of { time : float; pid : int }
  | Note of { time : float; pid : int; msg : string }
  | Dropped of {
      time : float;
      src : int;
      dst : int;
      name : string;
      attempt : int;
      what : string; (* "data" or "ack" *)
    }
  | Retransmit of {
      time : float;
      src : int;
      dst : int;
      name : string;
      attempt : int;
    }
  | Ack of { time : float; src : int; dst : int; name : string }
  | Duped of { time : float; src : int; dst : int; name : string }
  | Nic_drop of { time : float; pid : int; src : int; name : string }
  | Nic_redirect of {
      time : float;
      pid : int;
      src : int;
      name : string;
      dest : int;
    }
  | Nic_absorb of {
      time : float;
      pid : int;
      src : int;
      name : string;
      slot : int;
    }
  | Nic_emit of { time : float; pid : int; name : string; parts : int }
  | Nic_fanout of { time : float; pid : int; name : string; copies : int }

type t = { enabled : bool; mutable events : event list (* reversed *) }

let create ~enabled = { enabled; events = [] }
let enabled t = t.enabled
let emit t e = if t.enabled then t.events <- e :: t.events
let events t = List.rev t.events

let pp_event ppf = function
  | Send_init { time; pid; name; kind } ->
      Format.fprintf ppf "[%10.1f] P%d send-init  %-6s %s" time (pid + 1) kind
        name
  | Recv_init { time; pid; name; kind } ->
      Format.fprintf ppf "[%10.1f] P%d recv-init  %-6s %s" time (pid + 1) kind
        name
  | Delivered { time; src; dst; name; kind; bytes } ->
      Format.fprintf ppf "[%10.1f] P%d -> P%d delivered %-6s %s (%dB)" time
        (src + 1) (dst + 1) kind name bytes
  | Blocked { time; pid; on } ->
      Format.fprintf ppf "[%10.1f] P%d blocked on %s" time (pid + 1) on
  | Unblocked { time; pid } ->
      Format.fprintf ppf "[%10.1f] P%d unblocked" time (pid + 1)
  | Note { time; pid; msg } ->
      Format.fprintf ppf "[%10.1f] P%d %s" time (pid + 1) msg
  | Dropped { time; src; dst; name; attempt; what } ->
      Format.fprintf ppf "[%10.1f] P%d -> P%d DROPPED %s %s (attempt %d)"
        time (src + 1) (dst + 1) what name attempt
  | Retransmit { time; src; dst; name; attempt } ->
      Format.fprintf ppf "[%10.1f] P%d -> P%d retransmit %s (attempt %d)"
        time (src + 1) (dst + 1) name attempt
  | Ack { time; src; dst; name } ->
      Format.fprintf ppf "[%10.1f] P%d ack -> P%d %s" time (dst + 1)
        (src + 1) name
  | Duped { time; src; dst; name } ->
      Format.fprintf ppf "[%10.1f] P%d -> P%d duplicate suppressed %s" time
        (src + 1) (dst + 1) name
  | Nic_drop { time; pid; src; name } ->
      Format.fprintf ppf "[%10.1f] P%d nic: dropped %s from P%d" time
        (pid + 1) name (src + 1)
  | Nic_redirect { time; pid; src; name; dest } ->
      Format.fprintf ppf "[%10.1f] P%d nic: redirect %s from P%d -> P%d" time
        (pid + 1) name (src + 1) (dest + 1)
  | Nic_absorb { time; pid; src; name; slot } ->
      Format.fprintf ppf "[%10.1f] P%d nic: absorb %s from P%d (slot %d)"
        time (pid + 1) name (src + 1) slot
  | Nic_emit { time; pid; name; parts } ->
      Format.fprintf ppf "[%10.1f] P%d nic: emit %s (%d parts combined)" time
        (pid + 1) name parts
  | Nic_fanout { time; pid; name; copies } ->
      Format.fprintf ppf "[%10.1f] P%d nic: fanout %s x%d" time (pid + 1)
        name copies

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) (events t)

type stats = {
  makespan : float;
  messages : int;
  bytes : int;
  ownership_transfers : int;
  guard_evals : int;
  guard_hits : int;
  busy : float array;
  finish : float array;
  peak_storage : int array;
  statements : int;
  unmatched_sends : int;
  unmatched_recvs : int;
  retransmits : int;
  acks : int;
  dup_suppressed : int;
  packets_dropped : int;
  net_overhead_bytes : int;
  link_failures : int;
  nic_packets : int;
  nic_filtered : int;
  nic_aggregated : int;
  nic_emitted : int;
  nic_fanout_copies : int;
  nic_msgs_saved : int;
  nic_bytes : int;
  peak_inflight_bytes : int array;
  redist_stages : int;
}

let max_peak_inflight s = Array.fold_left max 0 s.peak_inflight_bytes

let stats_fields =
  let module J = Xdp_util.Jsonw in
  let int f s = J.Int (f s) in
  [
    ("makespan", fun s -> J.Float s.makespan);
    ("messages", int (fun s -> s.messages));
    ("bytes", int (fun s -> s.bytes));
    ("ownership_transfers", int (fun s -> s.ownership_transfers));
    ("guard_evals", int (fun s -> s.guard_evals));
    ("guard_hits", int (fun s -> s.guard_hits));
    ("statements", int (fun s -> s.statements));
    ("unmatched_sends", int (fun s -> s.unmatched_sends));
    ("unmatched_recvs", int (fun s -> s.unmatched_recvs));
    ("retransmits", int (fun s -> s.retransmits));
    ("acks", int (fun s -> s.acks));
    ("dup_suppressed", int (fun s -> s.dup_suppressed));
    ("packets_dropped", int (fun s -> s.packets_dropped));
    ("net_overhead_bytes", int (fun s -> s.net_overhead_bytes));
    ("link_failures", int (fun s -> s.link_failures));
    ("nic_packets", int (fun s -> s.nic_packets));
    ("nic_filtered", int (fun s -> s.nic_filtered));
    ("nic_aggregated", int (fun s -> s.nic_aggregated));
    ("nic_emitted", int (fun s -> s.nic_emitted));
    ("nic_fanout_copies", int (fun s -> s.nic_fanout_copies));
    ("nic_msgs_saved", int (fun s -> s.nic_msgs_saved));
    ("nic_bytes", int (fun s -> s.nic_bytes));
    ("peak_inflight_bytes", int max_peak_inflight);
    ("redist_stages", int (fun s -> s.redist_stages));
  ]

let idle_fraction s =
  let n = Array.length s.busy in
  if n = 0 || s.makespan <= 0.0 then 0.0
  else
    let total_busy = Array.fold_left ( +. ) 0.0 s.busy in
    1.0 -. (total_busy /. (float_of_int n *. s.makespan))

let pp_stats ppf s =
  Format.fprintf ppf
    "makespan=%.1f msgs=%d bytes=%d ownership=%d guards=%d/%d idle=%.1f%% \
     stmts=%d%s"
    s.makespan s.messages s.bytes s.ownership_transfers s.guard_hits
    s.guard_evals
    (100.0 *. idle_fraction s)
    s.statements
    (if s.unmatched_sends > 0 || s.unmatched_recvs > 0 then
       Printf.sprintf " UNMATCHED(s=%d,r=%d)" s.unmatched_sends
         s.unmatched_recvs
     else "");
  if
    s.retransmits > 0 || s.acks > 0 || s.dup_suppressed > 0
    || s.packets_dropped > 0 || s.link_failures > 0
  then
    Format.fprintf ppf
      " net(rexmit=%d acks=%d dups=%d drops=%d +%dB%s)" s.retransmits
      s.acks s.dup_suppressed s.packets_dropped s.net_overhead_bytes
      (if s.link_failures > 0 then
         Printf.sprintf " LINK_FAILURES=%d" s.link_failures
       else "");
  if s.nic_packets > 0 then
    Format.fprintf ppf
      " nic(pkts=%d filtered=%d agg=%d emit=%d fanout=%d saved=%d %dB)"
      s.nic_packets s.nic_filtered s.nic_aggregated s.nic_emitted
      s.nic_fanout_copies s.nic_msgs_saved s.nic_bytes;
  if s.redist_stages > 0 then
    Format.fprintf ppf " redist(stages=%d peak_inflight=%dB)" s.redist_stages
      (max_peak_inflight s)
