(** The fft3d redistribution, isolated: a thin [( *, *, BLOCK)] →
    [( *, BLOCK, * )] ownership-transfer all-to-all at scale.

    [A] is [m × n × n] ([m] small — the working slab of the 3-D FFT's
    corner-turn), starting column-blocked over a linear array of
    [nprocs] processors and redistributed to row-blocked, exactly the
    paper's §4 Loop 3 — but with the compute loops stripped so the
    communication pattern itself is the workload.  Every processor
    exchanges one [m × n/P × n/P] piece with every other processor:
    the P² all-to-all whose naive lowering blows per-processor peak
    in-flight bytes at large P, and the flagship workload for the
    {!Xdp.Plan_redist} collective planner.

    Redistribution preserves global contents, so the expected final
    tensor is just {!init} applied to the full index box — used for
    bit-identity checks between strategies, engines and fault plans. *)

open Xdp.Ir

val layout_before : n:int -> m:int -> nprocs:int -> Xdp_dist.Layout.t
val layout_after : n:int -> m:int -> nprocs:int -> Xdp_dist.Layout.t

(** [build ~n ~nprocs ()].  Requires [nprocs >= 1] and [n] a multiple
    of [nprocs]; [m] (default 2) is the slab depth.  [strategy]
    (default [`Naive]) passes through to {!Xdp.Redistribute.gen_info}. *)
val build :
  n:int ->
  nprocs:int ->
  ?m:int ->
  ?strategy:Xdp.Plan_redist.strategy ->
  unit ->
  program

(** Like {!build}, also returning the planner's report ([None] under
    [`Naive]) — stage counts feed [Exec.run ?redist_stages]. *)
val build_info :
  n:int ->
  nprocs:int ->
  ?m:int ->
  ?strategy:Xdp.Plan_redist.strategy ->
  unit ->
  program * Xdp.Plan_redist.info option

(** Deterministic per-element seed values (distinct per index). *)
val init : string -> int list -> float

(** The expected final contents of [A] (redistribution moves
    ownership, never values). *)
val reference : n:int -> ?m:int -> unit -> Xdp_util.Tensor.t
