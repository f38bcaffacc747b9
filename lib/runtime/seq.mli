(** Sequential reference interpreter.

    Executes the {e original} (XDP-free) program on one address space
    with plain dense tensors — the semantics any SPMD translation must
    preserve.  Every compiled/optimized program in the test suite is
    verified by gathering its simulated distributed arrays and
    comparing against this interpreter's result.

    @raise Invalid_argument when the program contains XDP transfer
    statements or guards (those belong to SPMD programs; the compute
    rules of a correct SPMD program are an artifact of distribution,
    not of the underlying algorithm). *)

open Xdp_util

type result = {
  arrays : (string * Tensor.t) list;
  scalars : (string * Value.t) list;
}

val run :
  ?init:(string -> int list -> float) ->
  ?scalars:(string * Value.t) list ->
  Xdp.Ir.program ->
  result

val array : result -> string -> Tensor.t
