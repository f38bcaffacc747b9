(** Deterministic fault schedules for the simulated network.

    The paper's operational semantics (Figure 1) and the rendezvous
    {!Xdp_sim.Board} assume a perfect wire: every matched message
    arrives exactly once, in cost-model order.  A fault plan perturbs
    the wire {e without} giving up determinism: every fate decision
    (drop this packet?  duplicate it?  how much jitter?) is a pure
    function of the plan seed and the packet's identity
    [(src, dst, message, attempt)], drawn through
    {!Xdp_util.Prng.stream}.  Same seed and plan, same run — traces,
    stats and tensors are bit-reproducible, which is what lets the
    differential tests compare faulty runs against fault-free ones.

    A plan with [deliver_after = k] never drops attempt [k] or later
    of any packet, so loss is bounded and the reliable transport is
    guaranteed to finish ("eventual delivery").  Plans with crashes,
    or [deliver_after] beyond the transport's retry budget, model
    permanently dead links; the transport surfaces those as
    diagnosable link failures instead of silent hangs. *)

type link = {
  drop : float;      (** per-packet drop probability, [0,1] *)
  dup : float;       (** per-packet duplication probability, [0,1] *)
  jitter : float;    (** extra delay, uniform in [0, jitter * wire time] *)
  slowdown : float;  (** wire-time multiplier, >= 1 *)
}

(** A perfect link: no drops, no dups, no jitter, full speed. *)
val reliable : link

type t = {
  seed : int;
  default_link : link;
  links : ((int * int) * link) list;  (** per-(src,dst) overrides *)
  stalls : (int * float * float) list;
      (** [(pid, t0, t1)]: packets touching [pid]'s NIC inside
          [\[t0,t1)] are held until [t1] *)
  crashes : (int * float) list;
      (** [(pid, t)]: from time [t] the processor's NIC goes dark —
          every packet to or from it is dropped (crash-stop) *)
  deliver_after : int;
      (** attempts at or past this index are never dropped; the
          eventual-delivery bound *)
}

(** The no-fault plan; {!Xdp_runtime.Exec.run}'s default.  Under
    [none] the transport passes the board's deliveries straight
    through, so a run is exactly the fault-free one. *)
val none : t

val make :
  ?seed:int ->
  ?drop:float ->
  ?dup:float ->
  ?jitter:float ->
  ?slowdown:float ->
  ?links:((int * int) * link) list ->
  ?stalls:(int * float * float) list ->
  ?crashes:(int * float) list ->
  ?deliver_after:int ->
  unit ->
  t
(** Defaults: no faults, [seed = 1], [deliver_after = 8].
    @raise Invalid_argument on probabilities outside [0,1],
    negative jitter, or [slowdown < 1]. *)

val is_none : t -> bool
val link : t -> src:int -> dst:int -> link

(** [drops_packet ~src ~dst ~msg ~attempt ~ack] — does the plan drop
    this packet?  Pure in its arguments.  [ack] selects the
    independent decision stream for acknowledgement packets. *)
val drops_packet :
  t -> src:int -> dst:int -> msg:int -> attempt:int -> ack:bool -> bool

val duplicates : t -> src:int -> dst:int -> msg:int -> attempt:int -> bool

(** Deterministic jitter in [0, jitter * scale). *)
val jitter_delay :
  t -> src:int -> dst:int -> msg:int -> attempt:int -> scale:float -> float

(** Push [time] out of any stall window of [pid]. *)
val stall_release : t -> pid:int -> float -> float

val crashed : t -> pid:int -> time:float -> bool
val describe : t -> string
