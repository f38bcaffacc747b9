(** Execution traces and run statistics.

    A trace records the observable events of a simulated run in
    timestamp order (useful for the Figure 1 conformance scenarios and
    for debugging optimizations); the statistics summarize what the
    experiment tables report: messages, bytes, simulated makespan,
    per-processor busy/idle split, guard evaluations and ownership
    transfers. *)

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
      what : string;  (** ["data"] or ["ack"] *)
    }  (** the fault plan dropped a packet on the wire *)
  | Retransmit of {
      time : float;
      src : int;
      dst : int;
      name : string;
      attempt : int;
    }  (** sender timed out waiting for an ack and resent *)
  | Ack of { time : float; src : int; dst : int; name : string }
      (** receiver acknowledged; [src]/[dst] are the {e data} endpoints *)
  | Duped of { time : float; src : int; dst : int; name : string }
      (** receiver suppressed a duplicate by sequence-number dedup *)
  | Nic_drop of { time : float; pid : int; src : int; name : string }
      (** a NIC program filtered the packet out *)
  | Nic_redirect of {
      time : float;
      pid : int;
      src : int;
      name : string;
      dest : int;
    }  (** a NIC program re-routed the packet to [dest] *)
  | Nic_absorb of {
      time : float;
      pid : int;
      src : int;
      name : string;
      slot : int;
    }  (** payload folded into an in-network aggregation bank *)
  | Nic_emit of { time : float; pid : int; name : string; parts : int }
      (** a full aggregation bank emitted its combined payload *)
  | Nic_fanout of { time : float; pid : int; name : string; copies : int }
      (** one upstream packet replicated to [copies] destinations *)

type t

(** [create ~enabled] — when disabled, [emit] is a no-op (statistics
    are always collected by the executor, independently). *)
val create : enabled:bool -> t

val enabled : t -> bool
val emit : t -> event -> unit

(** Events in emission order. *)
val events : t -> event list

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit

(** {1 Run statistics} *)

type stats = {
  makespan : float;        (** max processor finish time *)
  messages : int;
  bytes : int;
  ownership_transfers : int;
  guard_evals : int;
  guard_hits : int;        (** guards that evaluated true *)
  busy : float array;      (** per-pid time spent computing/initiating *)
  finish : float array;    (** per-pid finish time *)
  peak_storage : int array;(** per-pid peak local elements allocated *)
  statements : int;        (** interpreter steps executed *)
  unmatched_sends : int;
  unmatched_recvs : int;
  retransmits : int;       (** transport-layer resends after timeout *)
  acks : int;              (** acknowledgements put on the wire *)
  dup_suppressed : int;    (** duplicate deliveries deduplicated at the receiver *)
  packets_dropped : int;   (** data + ack packets the fault plan dropped *)
  net_overhead_bytes : int;(** retransmitted payload + ack bytes, beyond [bytes] *)
  link_failures : int;     (** messages abandoned after max retries *)
  nic_packets : int;       (** packets processed by attached NIC programs *)
  nic_filtered : int;      (** packets a NIC program dropped *)
  nic_aggregated : int;    (** payloads folded into aggregation banks *)
  nic_emitted : int;       (** combined payloads emitted by full banks *)
  nic_fanout_copies : int; (** copies produced by multicast fan-out *)
  nic_msgs_saved : int;    (** endpoint messages saved by in-flight folding *)
  nic_bytes : int;         (** bytes carried on NIC fabric hops *)
  peak_inflight_bytes : int array;
      (** per-pid peak bytes simultaneously in flight on the board
          (charged to the source from send post, to the destination
          from match, until delivery consumption) *)
  redist_stages : int;
      (** stages the redistribution planner scheduled (0 = no planned
          redistribution in this program) *)
}

(** Max over processors of [peak_inflight_bytes]. *)
val max_peak_inflight : stats -> int

(** Every scalar [stats] field, in report order, with its accessor;
    [peak_inflight_bytes] reports {!max_peak_inflight}.  The one list
    the batch records and the bench rows read the stats through. *)
val stats_fields : (string * (stats -> Xdp_util.Jsonw.t)) list

(** Idle fraction: 1 - sum(busy)/(nprocs * makespan). *)
val idle_fraction : stats -> float

val pp_stats : Format.formatter -> stats -> unit
