(** The placement space of the DL-sharding workload family.

    A {e configuration} fixes the workload: a training step of a stack
    of [layers] elementwise layers over a [batch] x [dim] activation
    matrix on [procs] simulated processors (forward through every
    layer, a column-sum gradient per layer, a weight update).  A
    {e placement} fixes how that workload maps onto the machine —
    GSPMD-style sharding specs over a (pipeline x data-parallel) mesh:

    - the mesh factorization [procs = pp * dp] and a contiguous
      assignment of layers to the [pp] pipeline stages;
    - per layer, an activation spec: [Row] (shard the batch axis over
      the [dp] mesh axis), [Col] (shard the feature axis), or [Repl]
      (replicate on every data-parallel peer);
    - per layer, a weight spec: [Wshard] (feature axis sharded over
      [dp]) or [Wrepl] (replicated), and for the replicated-weight
      data-parallel gradient, the allreduce compute rule: a rooted
      [Tree] (reduce to the stage root, broadcast back) or symmetric
      [Allgather] (every peer receives every partial and folds
      locally).

    {!Dlstack.build} elaborates a placement to IL+XDP over existing
    {!Xdp_dist.Layout} distributions; {!estimate} prices it without
    building the program.  Both follow the same case analysis — the
    exactness suite in [test/test_search.ml] holds estimated messages
    and wire bytes {e equal} to the executed [Stats] of the elaborated
    program, so the estimator can never drift from the semantics. *)

type act = Row | Col | Repl
type wgt = Wshard | Wrepl
type gsum = Tree | Allgather

type layer_spec = { stage : int; act : act; wgt : wgt; gsum : gsum }

type placement = { dp : int; pp : int; layers : layer_spec array }

type config = {
  procs : int;
  batch : int;  (** rows of the activation matrix; a multiple of [procs] *)
  dim : int;  (** feature columns, and the weight-vector length *)
  nlayers : int;
}

val act_of_string : string -> (act, string) result
val act_name : act -> string
val wgt_of_string : string -> (wgt, string) result
val wgt_name : wgt -> string
val gsum_name : gsum -> string

(** Canonical compact rendering, e.g. ["dp4xpp2[r/W.t|0 c/S.t|1]"];
    equal placements (after {!normalize}) render equally, so this is
    both the anneal dedup key and the label suffix. *)
val key : placement -> string

(** Human-oriented multi-line description. *)
val describe : config -> placement -> string

(** Force the don't-care fields to canonical values ([gsum] is only
    meaningful on replicated-weight [Row]/[Repl] layers). *)
val normalize : placement -> placement

(** Structural + divisibility validation of a placement against a
    configuration (mesh factorization, monotone contiguous stage
    assignment, [dim mod dp] for feature-sharded specs). *)
val validate : config -> placement -> (unit, string) result

(** [Error _] when the workload itself is malformed (non-positive
    sizes, [batch] not a multiple of [procs]). *)
val validate_config : config -> (unit, string) result

(** The naive fully-replicated data-parallel placement every
    comparison is anchored to: [dp = procs], one stage, [Repl]
    activations, replicated weights. *)
val naive : config -> placement

(** The hand placement a practitioner would write: classic data
    parallelism ([dp = procs], [Row] activations, replicated weights,
    rooted-tree allreduce). *)
val hand : config -> placement

(** All mesh factorizations [dp * pp = procs] with [pp <= nlayers]
    (a pipeline stage with no layers does no work), largest [dp]
    first. *)
val meshes : config -> (int * int) list

(** [uniform cfg ~dp ~pp act wgt gsum] — every layer identical, stages
    balanced contiguously; [None] if invalid for this config. *)
val uniform :
  config -> dp:int -> pp:int -> act -> wgt -> gsum -> placement option

(** {2 Elision predicates} — shared verbatim with the elaborator.

    A boundary moves no data when every element a consumer reads is
    already on that consumer. *)

(** The machine-wide batch-sharded input can be read in place iff the
    first layer is a one-stage [Row] over all [procs]. *)
val entry_elided : config -> placement -> bool

(** The machine-wide output can be written in place iff the last
    layer's stage spans the whole machine and its activations are
    [Row] over all [procs] or replicated. *)
val exit_elided : config -> placement -> bool

(** Layer-to-layer activations stay local iff the stages coincide and
    the consumer's spec needs nothing beyond the producer's local
    data (same spec, or a replicated producer). *)
val transfer_elided : src:layer_spec -> dst:layer_spec -> bool

(** {2 The estimator} *)

type summary = {
  comm : Estimate.t;  (** endpoint messages and wire bytes *)
  compute_elems : int;
      (** busiest processor's computed elements (forward + gradient),
          summed over pipeline stages — the redundant-compute price of
          replication *)
  est_makespan : float;  (** coarse alpha-beta + compute ranking metric *)
}

(** Price a placement statically in O(layers) — no IR, no simulator —
    on {!Xdp_sim.Costmodel.message_passing}.  Exact by construction:
    [comm.msgs] and [comm.wire_bytes] equal the executed
    [Stats.messages]/[Stats.bytes] of the elaborated program under
    that cost model.
    @raise Invalid_argument if {!validate} would reject. *)
val estimate : config -> placement -> summary
