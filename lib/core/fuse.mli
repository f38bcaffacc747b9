(** Loop fusion with XDP legality checking (paper §4: fusing the
    second FFT loop with the ownership-send loop to pipeline the
    redistribution).

    Two adjacent loops with identical headers are fused when, for
    every array touched by both bodies, all accesses carry the loop
    variable as an identity subscript in the same dimensions and agree
    in the others, so iteration [i] of both loops touches the same
    slice.  An access inside an inner loop over [v] is first widened to
    its footprint: [At v] becomes [lo:hi], a slice whose bounds are
    affine and non-decreasing in [v] becomes [a[v:=lo] : b[v:=hi]],
    any other use of [v] refuses the pair, and a footprint spanning the
    declared extent equals [*].  A scalar one body writes (assigned or
    bound by an inner loop) must not be read by the other, and one body
    must not assign a scalar the other writes.

    A refused pair whose first loop is a perfect nest
    [do o { do n { body } }] is retried with the nest interchanged.
    That is legal when neither loop's bounds mention the other's
    variable, the body assigns no scalar, and every access to an array
    the body writes has [o] and [n] as identity subscripts at the same
    positions as every other access to it (a transpose is refused).
    This fuses the FFT's [do k { do j }] sweep with the sends of
    column [j] when a processor holds more than one plane.

    In addition, the XDP-specific rule of §4 is enforced: between an
    ownership send ([-=>] / [=>]) of a section and its matching
    receive, no ownership queries ([iown] / [await] / [accessible])
    may be performed on the transferred data — so if either body sends
    ownership of an array, the other body must not query it. *)

open Ir

type refusal = { reason : string }

(** [fuse_pair ~decls l1 l2] — fuse two loops if legal, trying [l1]
    interchanged when it is not.  [decls] gives the extents that
    widened footprints are compared against. *)
val fuse_pair :
  decls:array_decl list -> for_loop -> for_loop -> (for_loop, refusal) result

(** Fuse every adjacent eligible pair in the program, innermost blocks
    first.  Within a block the tail is fused first and the head is then
    tried against the result: left to right, the FFT's two plane loops
    would fuse with each other and block the fusion with the sends. *)
val run : program -> program

(** Like {!run} but returns the refusal reasons encountered. *)
val run_verbose : program -> program * refusal list
