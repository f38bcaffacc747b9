(** The paper's §4 example: 3-D FFT with dynamic redistribution via
    ownership transfer.

    The array [A] (n×n×n, n a power of two) starts distributed
    [( *, *, BLOCK)] over a linear array of [nprocs] processors, so
    the 1-D FFTs along dimensions 2 and 1 need no communication.  It
    is then redistributed to [( *, BLOCK, * )] using [-=>] / [<=-]
    ownership transfers so the dimension-3 FFTs are local too.

    The four stages follow the paper's listings:

    - [Baseline]: iown-guarded loops over all processors plus the
      guarded redistribution Loop 3;
    - [Localized]: after compute-rule elimination and single-iteration
      collapse — every loop runs only its owner's iterations and
      references [mypid] directly;
    - [Fused]: {!Xdp.Fuse} applied to [Localized], which fuses the
      dimension-1 FFT loop with the ownership-send loop, so each
      slice's transfer is initiated as soon as it is computed (the
      paper's pipelining step); with more than one plane per
      processor it interchanges the FFT nest first;
    - [Pipelined]: {!Xdp.Sink_await} applied to [Fused], sinking the
      final [await] into the dimension-3 FFT loop for per-slice
      synchronization (the paper notes this "might incur a greater
      run-time overhead").

    Both are pass output at every block size [n / nprocs].

    [seg_rows] controls segment granularity: each processor's
    partition is segmented into [seg_rows × 1 × 1] chunks, and the
    pipelined stage sends ownership per [seg_rows]-row piece of each
    column (experiment T3's knob).  [seg_rows = n] reproduces the
    paper's whole-column segments. *)

open Xdp.Ir

type stage = Baseline | Localized | Fused | Pipelined

val stage_name : stage -> string
val all_stages : stage list

(** [build ~n ~nprocs ~stage ()]. Requires [n] a power of two and
    [nprocs] dividing [n]. [seg_rows] defaults to [n] and must divide
    [n]. *)
val build :
  n:int -> nprocs:int -> ?seg_rows:int -> stage:stage -> unit -> program

(** The equivalent sequential program (three FFT sweeps, no
    redistribution), for verification. *)
val sequential : n:int -> nprocs:int -> program

val init : string -> int list -> float

(** The layouts before and after redistribution (used by Figure 4). *)
val layout_before : n:int -> nprocs:int -> Xdp_dist.Layout.t

val layout_after : n:int -> nprocs:int -> Xdp_dist.Layout.t
