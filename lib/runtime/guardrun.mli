(** Per-processor guard dispatch over a run of scannable guards (the
    run-time form of the paper's §2.2 compute-rule elimination,
    DESIGN.md §4d).

    A run is two or more consecutive [U_guard] units of one compiled
    block.  At staging time {!build} classifies each guard of the run:

    - [mypid = k] ({!Pid}): its positions are indexed per [k], so a
      processor never looks at a guard naming another processor;
    - [iown(box)] with a literal, non-empty box of a non-universal
      array ({!Own}): its box goes into a bucket grid over the array's
      index space, so the guards a descriptor box meets are found from
      that box's buckets;
    - anything else ({!Other}): always evaluated.

    At run time a processor's {!cursor} holds its candidates: the
    positions of its own [Pid] guards and every [Other] guard, and per
    array the [Own] guards whose box meets one of its live
    descriptors.  A box that meets no live descriptor cannot be owned,
    so every non-candidate is false.  The candidate list of an array
    is rebuilt when {!Xdp_symtab.Symtab.growth} shows that its live set
    has grown; in between it has only shrunk (releases), so the list
    stays a superset.  Every candidate is still evaluated by its
    guard's own test; the false stretches between candidates are
    {!settle}d. *)

open Xdp_util

type kind =
  | Pid of int  (** [mypid = k] with a literal [k] *)
  | Own of string * Box.t
      (** [iown] of a literal, non-empty box of a non-universal array *)
  | Other

type t
(** The immutable table of one run, shared by every processor. *)

val build :
  id:int ->
  geometry:(string -> int list * int list) ->
  len:int ->
  kind:('g -> kind) ->
  head:('g -> float) ->
  'g list ->
  t option
(** [build ~id ~geometry ~len ~kind ~head rev] — the table of a run of
    [len] guards [rev], given last first (as staging accumulates them),
    with their class and static head charge.  Every settled [Pid]
    guard of a run charges one head, as does every settled [Own]
    guard; a guard whose head differs from another of its class is
    treated as [Other], as is an [Own] guard past 254 arrays.
    [geometry a] is array [a]'s (shape, segment shape); [id] numbers
    the run among its program's runs.  [None] when every guard is
    [Other]: such a run has nothing to settle, and a table would only
    add a candidate search per guard. *)

val id : t -> int
val length : t -> int


type cursor
(** One processor's candidates over one run. *)

val cold : cursor
(** A placeholder for a cursor not built yet. *)

val cursor : t -> pid:int -> cursor

val next : t -> cursor -> Xdp_symtab.Symtab.t -> int -> int
(** [next t cur st i] — the first candidate position [>= i], or
    [length t].  Every position before it (from [i]) is a guard that
    is false on this processor now.  Rebuilds the candidates of an
    array whose live set grew, and only for arrays with [Own] guards
    at or after [i]. *)

val settle : t -> cursor -> Rules.proc -> int -> int -> unit
(** [settle t cur p a b] — {!Rules.settle_guards} over positions [a]
    to [b - 1], all false; allocates nothing. *)
