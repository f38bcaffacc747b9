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

let rec arrays_of_expr = function
  | Int _ | Float _ | Bool _ | Var _ | Mypid | Nprocs -> []
  | Elem (a, idxs) -> a :: List.concat_map arrays_of_expr idxs
  | Bin (_, a, b) -> arrays_of_expr a @ arrays_of_expr b
  | Un (_, e) -> arrays_of_expr e
  | Mylb (s, _) | Myub (s, _) | Iown s | Accessible s | Await s ->
      arrays_of_section s

and arrays_of_section s =
  s.arr
  :: List.concat_map
       (function
         | All -> []
         | At e -> arrays_of_expr e
         | Slice (a, b, c) ->
             arrays_of_expr a @ arrays_of_expr b @ arrays_of_expr c)
       s.sel

let rec arrays_of_stmt = function
  | Assign (Lvar _, e) -> arrays_of_expr e
  | Assign (Lelem (a, idxs), e) ->
      (a :: List.concat_map arrays_of_expr idxs) @ arrays_of_expr e
  | Guard (g, body) -> arrays_of_expr g @ arrays_of_stmts body
  | For { lo; hi; step; body; _ } ->
      arrays_of_expr lo @ arrays_of_expr hi @ arrays_of_expr step
      @ arrays_of_stmts body
  | If (c, a, b) -> arrays_of_expr c @ arrays_of_stmts a @ arrays_of_stmts b
  | Send_value (s, d) ->
      arrays_of_section s
      @ (match d with
        | Unspecified -> []
        | Directed es -> List.concat_map arrays_of_expr es)
  | Send_owner s | Send_owner_value s | Recv_owner s | Recv_owner_value s ->
      arrays_of_section s
  | Recv_value { into; from } ->
      arrays_of_section into @ arrays_of_section from
  | Apply { args; _ } -> List.concat_map arrays_of_section args

and arrays_of_stmts stmts =
  List.sort_uniq compare (List.concat_map arrays_of_stmt stmts)

let arrays_of_expr e = List.sort_uniq compare (arrays_of_expr e)

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

let rec free_vars_expr = function
  | Int _ | Float _ | Bool _ | Mypid | Nprocs -> []
  | Var x -> [ x ]
  | Elem (_, idxs) -> List.concat_map free_vars_expr idxs
  | Bin (_, a, b) -> free_vars_expr a @ free_vars_expr b
  | Un (_, e) -> free_vars_expr e
  | Mylb (s, _) | Myub (s, _) | Iown s | Accessible s | Await s ->
      List.concat_map
        (function
          | All -> []
          | At e -> free_vars_expr e
          | Slice (a, b, c) ->
              free_vars_expr a @ free_vars_expr b @ free_vars_expr c)
        s.sel

let free_vars_expr e = List.sort_uniq compare (free_vars_expr e)

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
}

let effects body =
  let accs = ref [] and writes = ref [] and binders = ref []
  and reads = ref [] in
  let rec stmt loops st =
    let rec add acc_write acc_owner_op s =
      accs :=
        { acc_arr = s.arr; acc_sel = s.sel; acc_write; acc_owner_op;
          acc_loops = loops }
        :: !accs;
      List.iter
        (function
          | All -> ()
          | At e -> expr e
          | Slice (a, b, c) -> List.iter expr [ a; b; c ])
        s.sel
    and expr = function
      | Int _ | Float _ | Bool _ | Mypid | Nprocs -> ()
      | Var x ->
          if not (List.exists (fun fl -> fl.var = x) loops) then
            reads := x :: !reads
      | Elem (a, idxs) ->
          add false false { arr = a; sel = List.map (fun e -> At e) idxs }
      | Bin (_, a, b) ->
          expr a;
          expr b
      | Un (_, e) -> expr e
      | Mylb (s, _) | Myub (s, _) | Iown s | Accessible s | Await s ->
          add false true s
    in
    match st with
    | Assign (Lvar v, e) ->
        writes := v :: !writes;
        expr e
    | Assign (Lelem (a, idxs), e) ->
        add true false { arr = a; sel = List.map (fun e -> At e) idxs };
        expr e
    | Guard (g, b) ->
        expr g;
        List.iter (stmt loops) b
    | For fl ->
        List.iter expr [ fl.lo; fl.hi; fl.step ];
        binders := fl.var :: !binders;
        List.iter (stmt (fl :: loops)) fl.body
    | If (c, a, b) ->
        expr c;
        List.iter (stmt loops) a;
        List.iter (stmt loops) b
    | Send_value (s, d) -> (
        add false false s;
        match d with Unspecified -> () | Directed es -> List.iter expr es)
    | Send_owner s | Send_owner_value s | Recv_owner s | Recv_owner_value s ->
        add true true s
    | Recv_value { into; from } ->
        add true false into;
        add false false from
    | Apply { args; _ } -> List.iter (add true false) args
  in
  List.iter (stmt []) body;
  {
    accesses = List.rev !accs;
    scalar_writes = List.sort_uniq compare !writes;
    loop_vars = List.sort_uniq compare !binders;
    scalar_reads = List.sort_uniq compare !reads;
  }
