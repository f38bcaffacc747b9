(** Deterministic enumerate-then-anneal placement search.

    Phase 1 enumerates every uniform placement over every mesh
    factorization (plus the {!Space.naive} and {!Space.hand} anchors)
    and scores them all; phase 2 runs simulated annealing from the
    best seed, mutating one decision at a time (an activation or
    weight spec, the gradient rule, a stage boundary, or the mesh
    itself).

    Every random draw comes from {!Xdp_util.Prng.stream} keyed by
    [(seed, round, slot)], proposals are generated sequentially and
    {e then} scored, and acceptance replays sequentially — so the
    result is a pure function of [(config, options)], independent of
    how [pscore] schedules the scoring (inline, or fanned across the
    {!Xdp_batch.Pool} Domain workers).  Because the naive and hand
    anchors are always in the seed population and the incumbent is
    never lost, the searched estimated cost is [<=] both anchors on
    every config — the qcheck property in [test/test_search.ml]. *)

type objective = Bytes  (** endpoint wire bytes, ties on messages *)
              | Makespan  (** the coarse {!Space.summary.est_makespan} *)

val objective_of_string : string -> (objective, string) result
val objective_name : objective -> string

type options = {
  seed : int;
  rounds : int;  (** annealing rounds after enumeration *)
  proposals : int;  (** candidate mutations scored per round *)
  objective : objective;
}

val default_options : options

type result = {
  best : Space.placement;
  best_summary : Space.summary;
  naive_summary : Space.summary;
  hand_summary : Space.summary;
  evaluated : int;  (** total candidates scored, seeds included *)
  seeded : int;  (** enumeration-phase candidates *)
}

(** [search ?pscore cfg opts].  [pscore] maps placements to their
    summaries and defaults to inline {!Space.estimate}, which prices on
    {!Xdp_sim.Costmodel.message_passing}; pass a Domain-pool mapper to
    score each round's proposal batch in parallel (it must be
    order-preserving and pure, which [Space.estimate] is).
    @raise Invalid_argument on an invalid config or non-positive
    [rounds]/[proposals]. *)
val search :
  ?pscore:(Space.placement array -> Space.summary array) ->
  Space.config ->
  options ->
  result
