(** Redistribution code generation via ownership transfer (paper §4,
    Loop 3: changing an array's partitioning at run time with [-=>] /
    [<=-] instead of allocate-copy-free).

    Given the array's declared layout and a target layout, emits
    straight-line IL+XDP: for every sub-box that changes owner, an
    ownership+value send guarded by [iown] on the source side and an
    ownership+value receive guarded by the generalized compute rule
    [mypid == dst] on the destination side (ownership receives name
    sections the receiver does {e not} own, so [iown] cannot select
    the receiver — this is exactly where the paper's generalized
    compute rules earn their keep).

    [`Pairwise] granularity emits one transfer per (src, dst) pair
    (fewest, largest messages); [`Segment] splits each transfer along
    the source's declared segment shape (more, smaller messages that
    can be pipelined against computation — the §3.1 trade-off measured
    by experiment T3).

    [strategy] selects the lowering: [`Naive] (default) is the flat
    all-at-once transfer list above; [`Collectives b] runs the
    {!Plan_redist} planner to emit a staged collective schedule whose
    per-processor peak in-flight bytes stay within [b.peak_budget]
    ([0] = unbounded, plan purely for makespan).  Both lowerings move
    the same pieces, so final array contents are bit-identical; only
    posting order, peak memory and makespan differ. *)

open Ir

val gen :
  decls:array_decl list ->
  array:string ->
  new_layout:Xdp_dist.Layout.t ->
  ?granularity:[ `Pairwise | `Segment ] ->
  ?strategy:Plan_redist.strategy ->
  unit ->
  stmt list

(** Like {!gen}, also returning the planner's {!Plan_redist.info}
    ([None] under [`Naive]) so callers can record stage counts and
    check feasibility. *)
val gen_info :
  decls:array_decl list ->
  array:string ->
  new_layout:Xdp_dist.Layout.t ->
  ?granularity:[ `Pairwise | `Segment ] ->
  ?strategy:Plan_redist.strategy ->
  unit ->
  stmt list * Plan_redist.info option

(** The declarations after redistribution (same array, new layout) —
    needed if later passes reason about ownership statically. *)
val updated_decls :
  decls:array_decl list ->
  array:string ->
  new_layout:Xdp_dist.Layout.t ->
  array_decl list

(** The traditional alternative the paper's ownership transfer
    replaces: copy the array into a {e second} array [into] declared
    with the target layout (value sends into the new owners, local
    loop copies for stationary pieces).  Needs both arrays resident —
    the storage cost experiment T8 contrasts this with [gen].  The
    caller must declare [into] with [new_layout]. *)
val gen_copy :
  decls:array_decl list ->
  array:string ->
  into:string ->
  new_layout:Xdp_dist.Layout.t ->
  unit ->
  stmt list
