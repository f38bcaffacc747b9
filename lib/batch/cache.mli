(** The program cache: the batch service's compile-once/run-many move
    (DESIGN.md §8).

    A job's program is a function of its manifest spec minus the
    settings that only shape its run: the engine, the fault plan
    ([drop], [dup], [jitter], [fault_seed]) and the transport
    ([timeout], [max_retries]).  {!Workload.build} reads none of them.
    The cache is keyed on the canonical spec with exactly those fields
    cleared, so a fault-seed sweep over one program builds it, digests
    it and stages it once, and the key costs one structural hash.
    Every other field stays in the key, [cost] included: a field added
    to {!Manifest.spec} later joins the key by default.  Two specs that
    differ in a program field get separate entries even when their IR
    happens to coincide.

    A cache is deliberately {e not} thread-safe: the batch pool gives
    each Domain worker its own instance, so staged closures are never
    shared across domains and no lock sits on the job hot path.  With W
    workers and D distinct keys a campaign builds and stages at most
    W * D times.  A build that raises is not cached: each job that
    names it rebuilds it and reports the diagnostic again. *)

type t

val create : unit -> t

type entry
(** One program: its built workload, cost model, IR digest and (after
    the first compiled job) its staged code. *)

val find : t -> Manifest.spec -> entry
(** [find t spec] — the entry for [spec]'s program, built on the first
    request: the cost model is resolved, {!Workload.build} runs and the
    IR is digested.
    @raise Failure (or whatever {!Workload.build} raises) on an unknown
    cost model or a failed build; nothing is cached then. *)

val workload : entry -> Workload.t
val cost : entry -> Xdp_sim.Costmodel.t

val ir_digest : entry -> string
(** {!digest} of the program under its cost model, computed once per
    entry; batch records carry it. *)

val staged : t -> entry -> Xdp_runtime.Precompile.cprog
(** The entry's staged program, compiled on the first call.  Each call
    counts as one staging lookup: a hit, or a miss that pays
    {!Xdp_runtime.Precompile.compile}.  A compile that raises is not
    cached. *)

val hits : t -> int
val misses : t -> int

val compile_seconds : t -> float
(** Total wall-clock spent staging on misses — what the bench reports
    as staging time paid (and, scaled by hits, saved). *)

val size : t -> int
(** Number of programs held (successful builds only). *)

val digest :
  cost:Xdp_sim.Costmodel.t ->
  fuse:bool ->
  scalars:(string * Xdp_runtime.Value.t) list ->
  Xdp.Ir.program ->
  string
(** Hex digest of the compile inputs.  The program contributes its
    {!Xdp.Pp.program_to_string} rendering (declarations, layouts and
    body — the canonical form the golden tests also rely on); the cost
    model, fuse flag and scalars contribute a structural
    ([Marshal.No_sharing]) serialization, so equal-but-separately-built
    values digest identically. *)
