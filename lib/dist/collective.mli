(** Staged collective schedules for redistribution move lists.

    A flat [Redistribution.plan] is an uncoordinated all-to-all: every
    processor posts every outgoing transfer at once, so per-processor
    peak in-flight bytes grow with the whole plan.  This module
    decomposes a move list into a sequence of {e stages} — each a
    bounded slice of the all-to-all, shaped like a portable collective
    (ring rounds, recursive pairwise exchange, or windowed
    gather/scatter) — so that a processor only has a window's worth of
    transfers in flight at a time.  The planner ({!Xdp.Plan_redist})
    searches over shapes and window sizes, estimates peak memory and
    makespan with {!estimate}, and lowers the chosen schedule back to
    ordinary IL+XDP ownership transfers.

    Stages are purely a static grouping of the original moves: the
    union of all stages is exactly the input move list, so lowering a
    schedule moves the same elements as the naive lowering — only the
    posting order (and hence peak in-flight bytes) changes. *)

(** The three collective shapes the planner searches over. *)
type shape =
  | Ring  (** round [r] pairs each [src] with [dst = src + r (mod P)];
              a stage is a window of consecutive rounds.  Works for any
              move pattern; on a full all-to-all every stage is a
              perfect rotation with balanced per-processor traffic. *)
  | Exchange
      (** recursive pairwise exchange: round [r] pairs [src] with
          [dst = src xor r], so every round is a perfect matching.
          Only applicable when the processor count is a power of two
          ({!build} returns [None] otherwise). *)
  | Gather_scatter
      (** a stage gathers into a window of consecutive destinations:
          all sources send, only the windowed destinations receive.
          Bounds receiver-side memory hardest; senders are only
          throttled by the stage gates. *)

val shape_name : shape -> string
val all_shapes : shape list

type schedule = {
  shape : shape;
  window : int;  (** rounds (or destinations) grouped per stage *)
  nprocs : int;
  stages : Redistribution.move list array;
      (** non-empty stage slices, in execution order; their
          concatenation is a permutation of the input move list *)
}

(** [build shape ~nprocs ~window moves] groups [moves] into stages.
    Returns [None] when the shape cannot host the pattern
    ([Exchange] with non-power-of-two [nprocs]).  Every move must have
    [src <> dst] and endpoints within [nprocs].
    @raise Invalid_argument on [window < 1] or a bad move. *)
val build :
  shape -> nprocs:int -> window:int -> Redistribution.move list ->
  schedule option

(** [move_bytes cm m] — wire bytes of one move when lowered to an
    undirected ownership+value send under cost model [cm]: payload
    elements × [elem_bytes] plus [header_bytes] (the name tag travels —
    the destination is not bound at compile time).  Overflow-checked. *)
val move_bytes : Xdp_sim.Costmodel.t -> Redistribution.move -> int

type estimate = {
  est_peak : int;
      (** max over processors of modeled peak in-flight bytes *)
  est_peak_per_proc : int array;
  est_makespan : float;  (** coarse ranking metric, not a simulation *)
}

(** Static model of the lowered schedule's behaviour, matching
    [Plan_redist]'s stage gating: a processor's stage-[s] operations
    are held behind awaits on everything it received in stage [s-1]
    (when it both received then and sends now), so its operations can
    be in flight from its last gate at or before [s] until the stage
    after [s] (one stage of delivery/consumption slack).  Peak bytes
    are the per-processor max over stage times of that window;
    makespan sums per-stage critical paths (initiation + alpha-beta
    transfer of the heaviest processor).  Bytes, initiation times and
    alpha/beta all come from the one cost model [cm] the simulator
    charges.  The peak model is deliberately conservative; the
    differential suite checks measured peaks against it on feasible
    plans. *)
val estimate : Xdp_sim.Costmodel.t -> schedule -> estimate

(** Peak in-flight bytes the naive (unstaged) lowering reaches: the
    maximum over processors of their {e total} outgoing bytes.  Naive
    lowering posts every send before any receive, and no send drains
    before the first processor finishes posting, so on balanced
    patterns every processor's full outgoing volume is simultaneously
    in flight.  Overflow-checked. *)
val naive_peak :
  Xdp_sim.Costmodel.t -> nprocs:int -> Redistribution.move list -> int

(** Stable textual rendering of a schedule (shape, window, one line
    per move under its stage) — the goldens digest this.  O(moves);
    meant for test-sized schedules. *)
val describe : schedule -> string
