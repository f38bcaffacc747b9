(** Deterministic enumerate-then-anneal placement search.

    Phase 1 enumerates every uniform placement over every mesh
    factorization (plus the {!Space.naive} and {!Space.hand} anchors)
    and scores them all; phase 2 runs simulated annealing from the
    best seed, mutating one decision at a time (an activation or
    weight spec, the gradient rule, a stage boundary, or the mesh
    itself).

    Every random draw comes from {!Xdp_util.Prng.stream} keyed by
    [(seed, round, slot)], each round's proposals are generated and
    then scored inline with {!Space.estimate}, and acceptance replays
    sequentially — so the result is a pure function of
    [(config, options)].  Because the naive and hand anchors are
    always in the seed population and the incumbent is never lost,
    the searched estimated cost is [<=] both anchors on
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

(** [search cfg opts] scores every candidate with {!Space.estimate},
    which prices on {!Xdp_sim.Costmodel.message_passing}.
    @raise Invalid_argument on an invalid config or non-positive
    [rounds]/[proposals]. *)
val search : Space.config -> options -> result
