(** The rules governing execution on processor p (the paper's
    Figure 1), over explicit state.  Both engines call these directly:
    the reference interpreter's statement step ({!Exec}) and the
    staged closures ({!Precompile}).  Every clock charge, trace event,
    ownership transition and misuse diagnostic a statement can cause
    at run time happens here or in the caller's straight-line cost
    accounting, so the two engines implement one rule table.

    A rule that must wait (an [await] on a transitional section, an
    ownership send of a transitional section, a receive into a
    transitional section) raises {!Evalexpr.Blocked_on} before it has
    any effect; the caller retries the whole statement once a delivery
    makes the section accessible. *)

open Xdp_util

exception Deadlock of string
(** Every processor is blocked or done and nothing is in flight; the
    text names who waits on what. *)

exception Xdp_misuse of string
(** A violation of one of the obligations the paper places on the
    compiler (reading an unowned value outside a compute rule, writing
    or sending what you do not own, ...), or the step budget running
    out. *)

type pending = {
  p_kind : Xdp_sim.Board.kind;
  p_into : string * Box.t;
  p_arr : int;  (** the id of [p_into]'s array *)
}
(** A posted receive awaiting its delivery: what kind, and into which
    section. *)

(** The state of one run shared by all processors. *)
type run = {
  prog_name : string;  (** named by every diagnostic *)
  nprocs : int;
  cost : Xdp_sim.Costmodel.t;
  tr : Xdp_sim.Trace.t;
  wire : Xdp_net.Transport.t;  (** receives post here *)
  fabric : Xdp_nic.Fabric.t;  (** sends post here (above [wire]) *)
  arrays : (string, int) Hashtbl.t;
      (** {!array_ids} of the program: the numbering {!Precompile}
          records footprints in *)
  pending : (int, pending) Hashtbl.t;
      (** receive token -> the receive; its delivery completes on the
          processor that posted it *)
  mutable tokens : int;  (** last receive token issued *)
  mutable ownership_transfers : int;
  mutable steps : int;  (** statements executed, by both engines *)
  max_steps : int;
}

(** A processor's simulated time.  An all-float record, so OCaml
    stores both fields unboxed and {!charge} allocates nothing. *)
type times = {
  mutable clock : float;  (** local clock *)
  mutable busy : float;  (** time spent executing, not waiting *)
}

(** One processor.  Its clock and busy time sit in their own
    {!times} record: stored in [proc], a record mixing floats with
    other fields, every charge would box two fresh floats. *)
type proc = {
  run : run;
  pid : int;  (** 0-based *)
  st : Xdp_symtab.Symtab.t;
  times : times;
  mutable guard_evals : int;
  mutable guard_hits : int;
  inflight_into : int array;
      (** receives this processor has posted that are not delivered
          yet, per target array id.  A delivery changes only its
          target array's elements and descriptors, so a run of
          statements whose arrays have none in flight can take one
          scheduler turn ({!unobserved}). *)
}

val array_ids : Xdp.Ir.program -> (string, int) Hashtbl.t
(** Each declared array's id: its position in the declarations. *)

val section_name : string -> Box.t -> string
(** ["A[1:4]"], as diagnostics and trace events print a section. *)

val count_step : run -> unit
(** Count one executed statement.
    @raise Xdp_misuse ["step budget exceeded (N)"] past [max_steps]. *)

val reserve_steps : run -> int -> bool
(** [reserve_steps r n] counts [n] statements at once when the budget
    has room for all of them, and otherwise counts nothing and returns
    [false]; the caller then runs them one {!count_step} at a time, so
    the budget stops it at the exact statement. *)

val unobserved : proc -> int array -> bool
(** [unobserved p arrs]: no receive [p] has in flight targets any of
    the arrays [arrs] (ids), so no delivery that lands before [p]'s
    next statement can change what a run of statements or guards
    touching only those arrays reads, writes or queries.  The one
    licence for every multi-statement turn (fused runs and guard
    scans).  Reads [p]'s own counts only. *)

val charge : proc -> float -> unit
(** Advance the clock and the busy time by a cost. *)

val guard_other : int
val guard_pid : int
val guard_slots : int
(** The class codes of {!settle_guards}: [guard_pid] marks a
    [mypid = k] guard, a code below [guard_slots] an [iown] guard of
    that run-local array, and [guard_other] a guard that is always
    evaluated (never settled). *)

val settle_guards :
  proc ->
  pid_head:float ->
  own_head:float ->
  cls:Bytes.t ->
  live:int array ->
  int ->
  int ->
  unit
(** [settle_guards p ~pid_head ~own_head ~cls ~live a b] does for
    guards [a] to [b - 1] of a run what evaluating them would do if
    none holds, without evaluating them.  A guard of class
    [guard_pid] charges [pid_head]; one of class [c < guard_slots] is
    an [iown] guard that charges [own_head] and then the visits of the
    [live.(c)] live descriptors its query would scan.  In program
    order, each head is charged (skipped when zero, as evaluation does)
    and then each visit charge; the guards are counted in
    [guard_evals] and the visits recorded.  No guard in the range may
    be of class [guard_other].  The step budget is the caller's
    ({!reserve_steps}).  Allocates nothing. *)

(** {1 Diagnostics}

    Each raises {!Xdp_misuse} with the text
    ["P<pid> at t=<clock> in <program>: ..."]. *)

val unowned_read : proc -> string -> 'a
(** The value of the named unowned element was read outside a compute
    rule. *)

val unowned_cond : proc -> string -> 'a
(** ... inside an if-condition. *)

val unowned_write : proc -> string -> Box.t -> 'a
val unknown_kernel : proc -> string -> 'a

val check_step : proc -> int -> unit
(** Rejects a non-positive loop step. *)

val dest_pid : proc -> int -> int
(** The 0-based destination of a directed send to 1-based processor
    [pid1]; rejects one outside [1..nprocs]. *)

val check_kernel_arg : proc -> fn:string -> string -> Box.t -> unit
(** Rejects a kernel argument section [p] does not own. *)

(** {1 Placement queries}

    [iown], [accessible] and [await] charge [time_desc] per symbol-table
    descriptor they visit; [mylb]/[myub] are free and return [None]
    when nothing is owned (the evaluator maps that to MAXINT/MININT). *)

val iown : proc -> string -> Box.t -> bool
val accessible : proc -> string -> Box.t -> bool

val await : proc -> string -> Box.t -> bool
(** False when unowned.
    @raise Evalexpr.Blocked_on when transitional. *)

val mylb : proc -> string -> Box.t -> int -> int option
val myub : proc -> string -> Box.t -> int -> int option

(** {1 Transfers and kernels} *)

val send_value :
  proc -> arr:string -> box:Box.t -> dests:(unit -> int list option) -> unit
(** [E ->] / [E -> S]: send the owned section's name and value.
    [dests] resolves the directed destinations (0-based) after the
    ownership check and the payload read, as the interpreter orders
    them. *)

val send_owner : proc -> with_value:bool -> arr:string -> box:Box.t -> unit
(** [E =>] / [E -=>]: give up ownership (and the value).
    @raise Evalexpr.Blocked_on while the section is transitional. *)

val recv_owner : proc -> with_value:bool -> arr:string -> box:Box.t -> unit
(** [U <=] / [U <=-]: expect ownership of a section none of which is
    owned. *)

val recv_value : proc -> into:string * Box.t -> from:string * Box.t -> unit
(** [E <- X]: receive the value named [from] into the owned [into].
    @raise Evalexpr.Blocked_on while [into] is not accessible. *)

val charge_kernel : proc -> flops:float -> elems:int -> unit
(** A kernel's cost: its flops plus a read and a write per element. *)

val apply : proc -> fn:string -> Xdp.Kernels.t -> (string * Box.t) list -> unit
(** Run a kernel in place over owned sections. *)

val deliver : proc -> Xdp_sim.Board.delivery -> unit
(** Complete the receive a delivery matches, on its destination
    processor [p], which posted it: update [p]'s symbol table and its
    in-flight counts.  Waking blocked processors is the scheduler's
    job. *)
