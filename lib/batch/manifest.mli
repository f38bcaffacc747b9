(** Batch manifests: the input format of [xdpc batch] (DESIGN.md §8).

    A manifest names a campaign of simulated runs as a cross-product
    of job axes.  Two surface forms are accepted:

    - {b JSON}: one object [{ "schema": "xdp-batch/1", "defaults":
      {...}, "jobs": [ {...}, ... ] }] (or just a bare array of job
      objects, or a single job object).  Entries in ["defaults"] apply
      to every job; job fields override them.
    - {b JSONL}: one job object per non-empty line.  Errors name the
      line.

    Every job field accepts a scalar, an array of scalars (the entry
    expands over each), or — for integer fields — a range object
    [{"from": 1, "count": 100, "step": 1}].  An entry with several
    list-valued fields expands to their cross product, later fields in
    the canonical field order varying fastest.  Expansion order is the
    canonical job-id order: ids are assigned 0.. in manifest order,
    and the batch sink emits records in exactly this order no matter
    which worker finishes first.

    Fields: ["app"] (required: vecadd, fft3d, jacobi, jacobi2d,
    reduce, farm, redist, dlstack), ["stage"], ["n"], ["procs"],
    ["sweeps"], ["seg"], ["misaligned"], ["cost"], ["engine"],
    ["drop"], ["dup"], ["jitter"], ["fault_seed"], ["timeout"],
    ["max_retries"], ["nic_arity"], ["redist"], ["redist_budget"],
    ["placement"], ["shard"], ["wshard"], ["layers"], ["dim"].
    Anything else is rejected with the offending job and field
    named. *)

type spec = {
  app : string;
  stage : string;  (** [""] selects the app's default stage *)
  n : int;
  procs : int;
  sweeps : int;
  seg : int option;
  misaligned : bool;
  cost : string;
  engine : string option;  (** [None] = the service's engine *)
  drop : float;
  dup : float;
  jitter : float;
  fault_seed : int;
  timeout : float option;
      (** transport retransmit timeout; [None] = the transport
          default.  Must be > 0 ({!Workload.check_spec}). *)
  max_retries : int option;
      (** transport give-up threshold; [None] = the transport default.
          Must be >= 0 ({!Workload.check_spec}).  Lowering it under
          heavy [drop] is how a campaign provokes link failures on
          purpose. *)
  nic_arity : int;
      (** combining-tree fan-in for the in-network reduce stage
          ([app = "reduce"], [stage = "nic"]); ignored elsewhere.
          Must be >= 2. *)
  redist : string;
      (** redistribution lowering strategy for [app = "redist"]:
          ["naive"] or ["collectives"] (a sweepable axis); ignored
          elsewhere. *)
  redist_budget : int;
      (** per-processor peak in-flight byte budget handed to the
          collective planner when [redist = "collectives"]; [0] means
          unbounded.  Must be >= 0. *)
  placement : string;
      (** layout selection for [app = "dlstack"]: ["naive"], ["hand"]
          or ["search"] (a sweepable axis); ignored elsewhere. *)
  shard : string;
      (** activation sharding override for the dlstack [naive]/[hand]
          placements: [""] (keep the anchor's spec), ["row"], ["col"]
          or ["repl"]; rejected with [placement = "search"]. *)
  wshard : string;
      (** weight sharding override, same scope as [shard]: [""],
          ["shard"] or ["repl"]. *)
  layers : int;  (** dlstack pipeline depth.  Must be >= 1. *)
  dim : int;  (** dlstack feature width.  Must be >= 1. *)
}

val default_spec : spec
(** [app = ""], [stage = ""], [n = 16], [procs = 4], [sweeps = 4], no
    faults, [cost = "message_passing"]. *)

type job = { id : int; label : string; spec : spec }

val label_of_spec : spec -> string
(** Canonical human-readable rendering; part of each JSONL record. *)

val jobs_of_specs : spec list -> job array
(** Assign canonical ids and labels to an already-expanded spec list —
    the programmatic entry point used by the benchmarks and tests. *)

val parse :
  ?check:(spec -> (spec, string) result) ->
  source:string ->
  string ->
  (job array, string) result
(** [parse ~source text] — parse and expand a JSON or JSONL manifest.
    [source] names the input in diagnostics.  [check] validates and
    canonicalizes each expanded spec (the service passes
    {!Workload.check_spec}); its error is reported with the job's
    position context.  An object that repeats a key is rejected.  The
    error string always carries a line or a [jobs\[i\].field]
    location. *)

val parse_file :
  ?check:(spec -> (spec, string) result) ->
  string ->
  (job array, string) result
