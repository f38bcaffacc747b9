(** The programmable-NIC fabric: {!Prog} programs verified and staged
    into closures at attach time, run on every directed value packet
    addressed to a processor with a program attached.

    The fabric is the top of the executor's fixed network stack —
    fabric, reliable transport, rendezvous board — and every host send
    enters it through {!post_send}.  NIC state is driven only by the
    host program's posting order, never by wire-level retransmits or
    duplicates (those happen strictly below, on the messages the
    fabric chose to emit).  Together with slot-indexed aggregation
    banks combined in fixed slot order, this makes every NIC program
    idempotent under retransmit — faulty runs are bit-identical to
    fault-free ones.

    Every fabric hop costs [nic_alpha + nic_beta*bytes] plus the
    program's static per-packet cost [nic_op * (1 + instrs)]; fabric
    emissions re-enter the ordinary transport/board path (and pay
    full endpoint prices) from there. *)

(** Raised on dynamic program misbehaviour the attach-time verifier
    cannot rule out: a computed redirect/fan-out target outside
    [1..nprocs], an aggregation slot outside [0..arity), or
    contributions of mismatched shape.  Deterministic — a program
    that raises does so identically on both engines and under any
    fault plan. *)
exception Nic_misuse of string

type t

(** [create ~nprocs ~cost ~trace ~post specs] — verify and stage the
    given [(pid, program)] attachments ([pid] 0-based).  [post] is the
    posting entry point of the layer below (the transport): sends the
    fabric passes down and everything it emits go through it.  With
    [specs = []] nothing is attached and every send passes straight
    down.

    Rejects (as [Error diagnostic]): any per-program {!Verify.check}
    failure, duplicate attachments, attachment outside the machine,
    forwarding ([To_nic]) to a processor with no program attached,
    and forwarding cycles — so a packet visits a statically bounded
    number of NICs. *)
val create :
  nprocs:int ->
  cost:Xdp_sim.Costmodel.t ->
  trace:Xdp_sim.Trace.t ->
  post:
    (time:float ->
    src:int ->
    name:string ->
    kind:Xdp_sim.Board.kind ->
    payload:float array ->
    directed:int list option ->
    unit) ->
  (int * Prog.t) list ->
  (t, string) result

(** [post_send t ~time ~src ~name ~kind ~payload ~directed] — the
    executor's send.  A directed [Value] send whose destinations
    include NIC-attached processors is partitioned: the plain
    destinations go down in one post, then each NIC destination's
    program runs on the packet in list order.  Every other send goes
    down unchanged.  The payload is copied before being stored in an
    aggregation bank, and the board copies per-destination on post,
    so callers may reuse the array. *)
val post_send :
  t ->
  time:float ->
  src:int ->
  name:string ->
  kind:Xdp_sim.Board.kind ->
  payload:float array ->
  directed:int list option ->
  unit

(** {1 Counters} (cumulative over the run) *)

val packets : t -> int
(** packets that entered the fabric (incl. NIC-to-NIC forwards) *)

val filtered : t -> int

val absorbed : t -> int
(** payloads folded into aggregation banks *)

val emitted : t -> int
(** combined payloads emitted by full banks *)

val fanout_copies : t -> int

val fabric_bytes : t -> int
(** bytes carried on fabric hops *)

val msgs_saved : t -> int
(** endpoint messages saved by in-flight folding:
    [absorbed - emitted] *)
