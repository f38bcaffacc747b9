(** Positive-ack/retransmit reliable transport over a faulty wire.

    Sits between the executor (or the NIC fabric above it) and the
    rendezvous {!Xdp_sim.Board}, on every run.  The board still
    performs XDP's name matching — a send and a receive meet and
    produce a fault-free delivery.  Under {!Faultplan.none} the
    transport hands that delivery straight up: every operation is the
    board's, no failure is recorded and every counter stays 0.  Under
    any other plan it treats the delivery as a {e flight} and
    simulates the wire:

    - each data packet may be dropped, duplicated, jittered or slowed
      per the plan; the receiver deduplicates by the flight's board
      sequence number and delivers the payload upward exactly once;
    - the receiver acks every packet (acks can be lost too); the
      sender retransmits on timeout with exponential backoff (x1.5
      per retry) and gives up after [max_retries], recording a
      {!failure} that the executor reports as {!Link_failed} instead
      of hanging silently;
    - retransmitted payload and 16-byte acks ride the same
      alpha/beta cost model as first transmissions, so retransmit
      overhead shows up in the makespan and in
      {!Xdp_sim.Trace.stats} ([retransmits], [acks],
      [dup_suppressed], [packets_dropped], [net_overhead_bytes]).

    Determinism: all fate decisions are keyed PRNG streams
    ({!Faultplan}), event ties break on a monotonic event id, and
    deliveries reach the executor in [(arrival, board seq)] order —
    identical plan and program give identical traces. *)

exception Link_failed of string

type config = {
  timeout : float;    (** base retransmit timeout after departure, > 0 *)
  max_retries : int;  (** retransmissions allowed before giving up, >= 0 *)
}

(** timeout 12000 (6x the message-passing alpha), max_retries 20. *)
val default_config : config

type failure = {
  f_src : int;
  f_dst : int;
  f_name : string;      (** section name of the lost message *)
  f_attempts : int;
}

type t

(** Raises [Invalid_argument] on a [config] outside its bounds, whatever
    the plan. *)
val create :
  config:config ->
  plan:Faultplan.t ->
  trace:Xdp_sim.Trace.t ->
  Xdp_sim.Board.t ->
  cost:Xdp_sim.Costmodel.t ->
  t

(** Same contracts as the board's operations; under a faulty plan,
    matched pairs are pulled off the board immediately and launched
    onto the wire. *)
val post_send :
  t ->
  time:float ->
  src:int ->
  name:string ->
  kind:Xdp_sim.Board.kind ->
  payload:float array ->
  directed:int list option ->
  unit

val post_recv :
  t ->
  time:float ->
  dst:int ->
  name:string ->
  kind:Xdp_sim.Board.kind ->
  token:int ->
  unit

(** Whether any delivery is ready for the executor; settles the wire
    first, like {!peek_delivery}, but never allocates. *)
val has_delivery : t -> bool

(** Earliest delivery the executor may consume; advances the internal
    wire simulation as far as needed to know it is earliest. *)
val peek_delivery : t -> Xdp_sim.Board.delivery option

val pop_delivery : t -> Xdp_sim.Board.delivery option

(** Messages abandoned after [max_retries] whose payload never
    reached the receiver, in failure order. *)
val failures : t -> failure list

val retransmits : t -> int
val acks : t -> int
val dup_suppressed : t -> int
val packets_dropped : t -> int
val overhead_bytes : t -> int
val pp_failure : Format.formatter -> failure -> unit
