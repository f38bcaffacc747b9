(** The redistribution-as-collectives planner pass.

    [Redistribution.plan] describes {e what} must move; the naive
    lowering ({!Redistribute.gen} with [`Naive]) posts it all at once,
    so per-processor peak in-flight bytes grow with the whole plan and
    large-P all-to-alls blow any memory budget.  This pass picks a
    staged {!Xdp_dist.Collective.schedule} instead — a greedy search
    over the three collective shapes and a geometric sweep of window
    sizes, keeping the feasible candidate (estimated peak within the
    caller's budget) with the lowest estimated makespan — and lowers
    each stage back to ordinary IL+XDP ownership transfers, so the
    well-formedness checks, both engines (including fusion), fault
    plans and NIC offload apply to the result unchanged.

    {2 Stage lowering and gating}

    Stage [s] emits, per sending processor, one [mypid]-guarded group
    holding awaits on everything that processor received in stage
    [s-1] followed by its stage-[s] ownership+value sends; then, per
    receiving processor, a [mypid]-guarded group of the stage's
    receives.  The awaits are the stage barrier: a processor cannot
    post its stage-[s] traffic before its share of stage [s-1] has
    landed, which is what bounds its in-flight window.  Gates refer to
    sections the processor has already posted receives for (earlier in
    its own program order), so they block or pass — they can never be
    skipped as unowned.

    {2 Budget semantics}

    The budget is per-processor peak in-flight wire bytes as accounted
    by the board ({!Xdp_sim.Board.peak_inflight}): a message charges
    its source from send post and its destination from match until the
    delivery is consumed.  [peak_budget = 0] means unbounded (plan
    purely for makespan).  Feasibility is judged against the
    conservative static model in {!Xdp_dist.Collective.estimate},
    evaluated on the simulator's own {!Xdp_sim.Costmodel.message_passing}
    (planning with another job's model would only change performance,
    never results); the differential suite checks measured peaks stay
    within budget on feasible plans under that model. *)

open Xdp_dist

type budget = { peak_budget : int }  (** bytes; 0 = unbounded *)

type strategy = [ `Naive | `Collectives of budget ]

(** What the search chose, for reports, goldens and batch records. *)
type info = {
  shape : Collective.shape;
  window : int;
  stages : int;
  moves : int;
  moved_bytes : int;  (** total wire bytes of the plan (checked) *)
  est_peak : int;
  est_makespan : float;
  naive_peak : int;  (** {!Xdp_dist.Collective.naive_peak} of the plan *)
  budget : int;
  feasible : bool;
      (** an in-budget schedule was found (always true when the
          budget is unbounded) *)
}

(** [plan ~nprocs ~budget moves] — search shapes × windows, costing
    every candidate on [message_passing], and return the chosen
    schedule.  When nothing fits the budget, the schedule with the
    smallest estimated peak is returned with
    [feasible = false] (the caller decides whether that is an error).
    Deterministic: ties break toward fewer stages, then shape order,
    then smaller window. *)
val plan :
  nprocs:int ->
  budget:int ->
  Redistribution.move list ->
  Collective.schedule * info

(** Lower a schedule to IL+XDP statements for array [array] (see the
    gating description above).  The moved elements are exactly the
    input move list's, so results are bit-identical to the naive
    lowering. *)
val lower : array:string -> Collective.schedule -> Ir.stmt list
