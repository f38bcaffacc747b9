(** One-call compilation driver: sequential IL in, optimized IL+XDP
    out.

    Bundles the full pipeline in the order the paper's optimization
    story suggests: shift-communication vectorization ({!Shift_halo}),
    owner-computes lowering of whatever remains ({!Lower}, receivers
    bound), local-communication elimination ({!Elim_comm}),
    compute-rule elimination by bounds localization ({!Localize}),
    loop-invariant rule hoisting ({!Hoist_guard}), loop fusion
    ({!Fuse}), send binding ({!Bind}) and simplification — then checks
    well-formedness and the send/receive balance.

    Apply the passes directly when you want to reorder stages; this is
    the downstream-user entry point. *)

open Ir

type result = {
  compiled : program;
  balance : Match_check.verdict;
      (** the §2.2 obligation, checked statically *)
}

(** [optimize ~nprocs p] — compile sequential IL (Assign/For/If/Apply
    only).  [observe] (if given) is called with each pass name
    ([shift-halo], [lower], [elim-comm], [localize], [hoist-guard],
    [fuse], [bind], [simplify]) and its output program, in order.
    @raise Invalid_argument if [p] already contains XDP constructs or
    fails well-formedness. *)
val optimize : ?observe:(string -> program -> unit) -> nprocs:int -> program -> result
