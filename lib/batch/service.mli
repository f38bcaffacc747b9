(** The batch execution service behind [xdpc batch] (DESIGN.md §8).

    Executes an expanded job list across Domain workers
    ({!Pool}) and streams one JSONL record per job through the ordered
    {!Sink}.  Each worker keeps a program cache ({!Cache}) keyed on the
    job's program fields: jobs that differ only in their engine, fault
    or transport settings share one build, one IR digest and one
    staging, and pay only for their run.  A build that raises is never
    cached.  The default record stream is strictly deterministic —
    identical bytes for any [workers] — because every
    field is a function of the job alone: simulated statistics,
    dynamic fusion counters, the IR digest, the canonical label.
    [timings] adds a per-job ["wall_ms"] field for profiling and
    deliberately gives that guarantee up.

    A job that aborts ({!Xdp_runtime.Exec.Deadlock},
    {!Xdp_runtime.Exec.Xdp_misuse},
    {!Xdp_net.Transport.Link_failed}, ...) still emits its record
    ([ok = false] with the diagnostic) and the failure is reflected in
    the summary — the CLI turns that into a nonzero exit naming the
    first failing job. *)

type summary = {
  jobs : int;
  failed : int;
  first_failure : (int * string * string) option;
      (** (job id, label, diagnostic) of the lowest-id failed job *)
  cache_hits : int;
      (** staging lookups answered from the cache (compiled jobs only) *)
  cache_misses : int;
      (** programs staged: at most [workers * distinct program keys] *)
  compile_seconds : float;  (** staging wall paid across all workers *)
  wall_seconds : float;  (** whole-campaign wall clock *)
}

(** [diagnose e] — the one-line diagnostic for an exception a run can
    abort with ([Failure], [Invalid_argument], {!Xdp_runtime.Exec.Deadlock},
    {!Xdp_runtime.Exec.Xdp_misuse}, {!Xdp_nic.Fabric.Nic_misuse},
    {!Xdp_net.Transport.Link_failed}); [None] for anything else.  Batch
    records and [xdpc run] both report through it. *)
val diagnose : exn -> string option

val run :
  ?workers:int ->
  ?engine:Xdp_runtime.Exec.engine ->
  ?timings:bool ->
  write:(string -> unit) ->
  Manifest.job array ->
  summary
(** [run ~write jobs] — execute every job and stream records through
    [write] (one line each, ["\n"]-terminated, canonical id order).
    [workers] (default 1) is the Domain count; [engine] (default
    {!Xdp_runtime.Exec.default_engine}) applies to jobs without their
    own ["engine"] field.  [write] is called with the sink's lock held
    and must not call back into the service. *)
