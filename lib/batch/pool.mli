(** A Domain worker pool over an indexed job list.  Its one user is
    the batch service, [Service.run]; placement search scores its
    candidates inline.

    Jobs are claimed from a shared atomic counter, so distribution is
    dynamic (a long job does not stall the queue behind it) and every
    job runs exactly once.  Each simulated run stays deterministic and
    single-threaded; the only cross-domain state is the claim counter
    and whatever the caller's [emit] writes — the batch service hands
    [emit] to a {!Sink}, which serializes internally.

    With [workers <= 1] everything runs inline on the calling domain
    (no spawns), which is both the [--jobs 1] baseline the benchmarks
    compare against and the mode whose output the determinism property
    pins byte-for-byte against [--jobs 4]. *)

val run :
  workers:int ->
  njobs:int ->
  f:(worker:int -> int -> 'r) ->
  emit:(int -> 'r -> unit) ->
  unit
(** [run ~workers ~njobs ~f ~emit] — evaluate [f ~worker i] for every
    [i] in [0..njobs-1] across [min workers njobs] domains and pass
    each result to [emit i r] from the domain that produced it.
    [f]'s per-worker state (the service's staging cache) is keyed by
    [worker], which is [0] for the inline path.  An exception escaping
    [f] or [emit] aborts the pool and is re-raised on the calling
    domain after the other workers drain. *)
