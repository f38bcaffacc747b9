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
  | Elem of string * expr list
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Mypid
  | Nprocs
  | Mylb of section * int
  | Myub of section * int
  | Iown of section
  | Accessible of section
  | Await of section

and dim_sel = All | At of expr | Slice of expr * expr * expr
and section = { arr : string; sel : dim_sel list }

type lhs = Lvar of string | Lelem of string * expr list
type dest = Unspecified | Directed of expr list

type for_loop = {
  var : string;
  lo : expr;
  hi : expr;
  step : expr;
  body : stmt list;
  local_range : (string * int) option;
}

and stmt =
  | Assign of lhs * expr
  | Guard of expr * stmt list
  | For of for_loop
  | If of expr * stmt list * stmt list
  | Send_value of section * dest
  | Send_owner of section
  | Send_owner_value of section
  | Recv_value of { into : section; from : section }
  | Recv_owner of section
  | Recv_owner_value of section
  | Apply of { fn : string; args : section list }

type array_decl = {
  arr_name : string;
  layout : Xdp_dist.Layout.t;
  seg_shape : int list;
  universal : bool;
}

type program = {
  prog_name : string;
  decls : array_decl list;
  body : stmt list;
}

let decl_of p name =
  match List.find_opt (fun d -> d.arr_name = name) p.decls with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Ir.decl_of: undeclared array %s" name)

let equal_expr (a : expr) (b : expr) = a = b
let equal_section (a : section) (b : section) = a = b
let equal_stmt (a : stmt) (b : stmt) = a = b

let rec subst_expr v e' = function
  | Var x when x = v -> e'
  | (Int _ | Float _ | Bool _ | Var _ | Mypid | Nprocs) as e -> e
  | Elem (a, idxs) -> Elem (a, List.map (subst_expr v e') idxs)
  | Bin (op, a, b) -> Bin (op, subst_expr v e' a, subst_expr v e' b)
  | Un (op, e) -> Un (op, subst_expr v e' e)
  | Mylb (s, d) -> Mylb (subst_section v e' s, d)
  | Myub (s, d) -> Myub (subst_section v e' s, d)
  | Iown s -> Iown (subst_section v e' s)
  | Accessible s -> Accessible (subst_section v e' s)
  | Await s -> Await (subst_section v e' s)

and subst_section v e' s =
  {
    s with
    sel =
      List.map
        (function
          | All -> All
          | At e -> At (subst_expr v e' e)
          | Slice (a, b, c) ->
              Slice (subst_expr v e' a, subst_expr v e' b, subst_expr v e' c))
        s.sel;
  }

let rec subst_stmt v e' = function
  | Assign (Lvar x, e) when x = v ->
      (* Assignment target shadows nothing in our flat scalar space;
         substituting into the RHS only. *)
      Assign (Lvar x, subst_expr v e' e)
  | Assign (Lvar x, e) -> Assign (Lvar x, subst_expr v e' e)
  | Assign (Lelem (a, idxs), e) ->
      Assign (Lelem (a, List.map (subst_expr v e') idxs), subst_expr v e' e)
  | Guard (g, body) ->
      Guard (subst_expr v e' g, List.map (subst_stmt v e') body)
  | For fl ->
      if fl.var = v then
        (* Loop variable shadows v inside the body. *)
        For
          {
            fl with
            lo = subst_expr v e' fl.lo;
            hi = subst_expr v e' fl.hi;
            step = subst_expr v e' fl.step;
          }
      else
        For
          {
            fl with
            lo = subst_expr v e' fl.lo;
            hi = subst_expr v e' fl.hi;
            step = subst_expr v e' fl.step;
            body = List.map (subst_stmt v e') fl.body;
          }
  | If (c, a, b) ->
      If
        ( subst_expr v e' c,
          List.map (subst_stmt v e') a,
          List.map (subst_stmt v e') b )
  | Send_value (s, d) ->
      Send_value
        ( subst_section v e' s,
          match d with
          | Unspecified -> Unspecified
          | Directed es -> Directed (List.map (subst_expr v e') es) )
  | Send_owner s -> Send_owner (subst_section v e' s)
  | Send_owner_value s -> Send_owner_value (subst_section v e' s)
  | Recv_value { into; from } ->
      Recv_value
        { into = subst_section v e' into; from = subst_section v e' from }
  | Recv_owner s -> Recv_owner (subst_section v e' s)
  | Recv_owner_value s -> Recv_owner_value (subst_section v e' s)
  | Apply { fn; args } ->
      Apply { fn; args = List.map (subst_section v e') args }

let rec map_stmts f stmts =
  let one = function
    | Guard (g, body) -> Guard (g, map_stmts f body)
    | For fl -> For { fl with body = map_stmts f fl.body }
    | If (c, a, b) -> If (c, map_stmts f a, map_stmts f b)
    | s -> s
  in
  f (List.map one stmts)

let rec size stmts =
  List.fold_left
    (fun acc s ->
      acc
      +
      match s with
      | Guard (_, body) -> 1 + size body
      | For { body; _ } -> 1 + size body
      | If (_, a, b) -> 1 + size a + size b
      | _ -> 1)
    0 stmts

type access = {
  acc_arr : string;
  acc_sel : dim_sel list;
  acc_write : bool;
  acc_owner_op : bool;
  acc_loops : for_loop list;
}

type effects = {
  accesses : access list;
  scalar_writes : string list;
  loop_vars : string list;
  scalar_reads : string list;
  awaits : bool;
  tests_accessible : bool;
  transfers : bool;
}

(* The one walk: a statement list and a lone expression are described
   by the same accumulators.  Top-level recursion over one state
   record, so a walk allocates only what it reports. *)
type walker = {
  mutable w_accs : access list;
  mutable w_writes : string list;
  mutable w_binders : string list;
  mutable w_reads : string list;
  mutable w_awaits : bool;
  mutable w_accessible : bool;
  mutable w_transfers : bool;
}

let rec bound x = function
  | [] -> false
  | fl :: rest -> String.equal fl.var x || bound x rest

let rec add w loops acc_write acc_owner_op s =
  w.w_accs <-
    { acc_arr = s.arr; acc_sel = s.sel; acc_write; acc_owner_op;
      acc_loops = loops }
    :: w.w_accs;
  sel w loops s.sel

and sel w loops = function
  | [] -> ()
  | All :: rest -> sel w loops rest
  | At e :: rest ->
      expr w loops e;
      sel w loops rest
  | Slice (a, b, c) :: rest ->
      expr w loops a;
      expr w loops b;
      expr w loops c;
      sel w loops rest

and expr w loops = function
  | Int _ | Float _ | Bool _ | Mypid | Nprocs -> ()
  | Var x -> if not (bound x loops) then w.w_reads <- x :: w.w_reads
  | Elem (a, idxs) ->
      add w loops false false { arr = a; sel = List.map (fun e -> At e) idxs }
  | Bin (_, a, b) ->
      expr w loops a;
      expr w loops b
  | Un (_, e) -> expr w loops e
  | Mylb (s, _) | Myub (s, _) | Iown s -> add w loops false true s
  | Accessible s ->
      w.w_accessible <- true;
      add w loops false true s
  | Await s ->
      w.w_awaits <- true;
      add w loops false true s

let rec stmt w loops = function
  | Assign (Lvar v, e) ->
      w.w_writes <- v :: w.w_writes;
      expr w loops e
  | Assign (Lelem (a, idxs), e) ->
      add w loops true false { arr = a; sel = List.map (fun e -> At e) idxs };
      expr w loops e
  | Guard (g, b) ->
      expr w loops g;
      stmts w loops b
  | For fl ->
      expr w loops fl.lo;
      expr w loops fl.hi;
      expr w loops fl.step;
      w.w_binders <- fl.var :: w.w_binders;
      stmts w (fl :: loops) fl.body
  | If (c, a, b) ->
      expr w loops c;
      stmts w loops a;
      stmts w loops b
  | Send_value (s, d) -> (
      w.w_transfers <- true;
      add w loops false false s;
      match d with
      | Unspecified -> ()
      | Directed es -> List.iter (expr w loops) es)
  | Send_owner s | Send_owner_value s | Recv_owner s | Recv_owner_value s ->
      w.w_transfers <- true;
      add w loops true true s
  | Recv_value { into; from } ->
      w.w_transfers <- true;
      add w loops true false into;
      add w loops false false from
  | Apply { args; _ } -> List.iter (add w loops true false) args

and stmts w loops = function
  | [] -> ()
  | s :: rest ->
      stmt w loops s;
      stmts w loops rest

let walk f =
  let w =
    { w_accs = []; w_writes = []; w_binders = []; w_reads = [];
      w_awaits = false; w_accessible = false; w_transfers = false }
  in
  f w;
  let names = function
    | ([] | [ _ ]) as l -> l
    | l -> List.sort_uniq String.compare l
  in
  {
    accesses = List.rev w.w_accs;
    scalar_writes = names w.w_writes;
    loop_vars = names w.w_binders;
    scalar_reads = names w.w_reads;
    awaits = w.w_awaits;
    tests_accessible = w.w_accessible;
    transfers = w.w_transfers;
  }

let effects body = walk (fun w -> stmts w [] body)
let expr_effects e = walk (fun w -> expr w [] e)

let arrays eff =
  List.sort_uniq String.compare (List.map (fun a -> a.acc_arr) eff.accesses)
