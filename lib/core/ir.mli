(** The IL+XDP intermediate language (paper §2).

    A small Fortran-like intermediate language (assignments, counted
    [do] loops, conditionals, opaque compute kernels) extended with the
    XDP constructs:

    - {e compute rules}: boolean guard expressions controlling whether
      a processor executes a statement (§2.4);
    - {e intrinsics}: [mypid], [nprocs], [mylb], [myub], [iown],
      [accessible], [await] (§2.3, Figure 1);
    - {e data and ownership transfer statements}: the five send/receive
      flavors [E ->], [E -> S], [E =>], [E -=>], [E <- X], [U <=],
      [U <=-] (§2.6, §2.7).

    Indexing is Fortran-style 1-based; [Mypid] evaluates to a 1-based
    processor id as in the paper's listings.  A {e program} couples a
    statement list with array declarations carrying HPF layouts and
    compiler-chosen segment shapes (§3.1). *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Min | Max

type unop = Neg | Not

type expr =
  | Int of int
  | Float of float
  | Bool of bool
  | Var of string
      (** universally owned scalar (each processor has its own copy) *)
  | Elem of string * expr list  (** array element value reference *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Mypid  (** 1-based id of the executing processor *)
  | Nprocs
  | Mylb of section * int
      (** smallest owned index of the section in a dimension; MAXINT
          when none owned *)
  | Myub of section * int  (** largest owned index; MININT when none *)
  | Iown of section
  | Accessible of section
  | Await of section
      (** false if unowned; otherwise blocks until accessible, then
          true.  Only legal in guard position (checked by {!Wf}). *)

and dim_sel =
  | All                           (** the full extent, ["*"] *)
  | At of expr                    (** a single index *)
  | Slice of expr * expr * expr   (** [lo : hi : stride] *)

and section = { arr : string; sel : dim_sel list }
(** A named section of an array in F90 triplet notation.  Names may
    refer to unowned sections; values may not (§2.1). *)

type lhs = Lvar of string | Lelem of string * expr list

(** Destination annotation of a value send: [Unspecified] sends to
    whoever receives the name; [Directed] (the paper's [E -> S]) names
    the receiving processors with 1-based pid expressions.  The
    {!Bind} pass upgrades [Unspecified] to [Directed] where it can
    prove the receiver, which also elides the transferred name (paper,
    footnote 2). *)
type dest = Unspecified | Directed of expr list

type for_loop = {
  var : string;
  lo : expr;
  hi : expr;
  step : expr;
  body : stmt list;
  local_range : (string * int) option;
      (** set by {!Localize}: the loop range is contained in the
          executing processor's owned indices of (array, dim) — the
          licence other passes need to treat iteration-local sections
          as wholly owned *)
}

and stmt =
  | Assign of lhs * expr
  | Guard of expr * stmt list
      (** [rule : { stmts }] — executed only where the rule is true; a
          reference to an unowned section value inside the rule makes
          the whole rule false (§2.4) *)
  | For of for_loop
  | If of expr * stmt list * stmt list
  | Send_value of section * dest          (** [E ->] / [E -> S] *)
  | Send_owner of section                 (** [E =>] *)
  | Send_owner_value of section           (** [E -=>] *)
  | Recv_value of { into : section; from : section }  (** [E <- X] *)
  | Recv_owner of section                 (** [U <=] *)
  | Recv_owner_value of section           (** [U <=-] *)
  | Apply of { fn : string; args : section list }
      (** opaque compute kernel, e.g. [fft1D(A[i,*,k])] *)

type array_decl = {
  arr_name : string;
  layout : Xdp_dist.Layout.t;
  seg_shape : int list;
  universal : bool;
      (** when true every processor holds its own full copy of the
          array (paper §2.1, "universally owned": values at each
          processor may differ); [layout] then only records the global
          shape and machine size.  Transfer statements may not name
          universal arrays — copy into an exclusive section first, as
          the paper prescribes (§2.6). *)
}

type program = {
  prog_name : string;
  decls : array_decl list;
  body : stmt list;
}

(** {1 Helpers} *)

val decl_of : program -> string -> array_decl

(** Structural equality (no normalization). *)
val equal_expr : expr -> expr -> bool

val equal_section : section -> section -> bool
val equal_stmt : stmt -> stmt -> bool

(** [subst_expr v e' e] — substitute expression [e'] for variable [v]. *)
val subst_expr : string -> expr -> expr -> expr

val subst_section : string -> expr -> section -> section
val subst_stmt : string -> expr -> stmt -> stmt

(** [map_stmts f stmts] — bottom-up rewrite of every statement list
    ([f] is applied to each nested block, innermost first). *)
val map_stmts : (stmt list -> stmt list) -> stmt list -> stmt list

(** Count of statements (for reporting). *)
val size : stmt list -> int

(** {1 Effects of an IR fragment}

    The one query over IR fragments: which sections a statement list
    or an expression reads, writes, queries, awaits or transfers, and
    which scalars it reads, assigns or binds.  Every pass and the
    staged engine ask it instead of walking the tree themselves. *)

type access = {
  acc_arr : string;
  acc_sel : dim_sel list;  (** an element reference as [At] subscripts *)
  acc_write : bool;
      (** assigned, received into, passed to a kernel, or an ownership
          transfer *)
  acc_owner_op : bool;  (** ownership transfer or query *)
  acc_loops : for_loop list;
      (** the loops of the walked fragment that enclose the access,
          innermost first *)
}

type effects = {
  accesses : access list;  (** in program order *)
  scalar_writes : string list;  (** assigned scalars *)
  loop_vars : string list;  (** variables of the loops in the fragment *)
  scalar_reads : string list;
      (** scalars read outside every loop of the fragment that binds
          them; for an expression, its free variables *)
  awaits : bool;  (** evaluates [await], the one blocking query *)
  tests_accessible : bool;  (** evaluates [accessible] *)
  transfers : bool;  (** contains a send or receive statement *)
}

val effects : stmt list -> effects
val expr_effects : expr -> effects

(** The arrays of [accesses], sorted, without repeats. *)
val arrays : effects -> string list
