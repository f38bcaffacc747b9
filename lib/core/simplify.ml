open Ir

let rec expr e =
  match e with
  | Int _ | Float _ | Bool _ | Var _ | Mypid | Nprocs -> e
  | Elem (a, idxs) -> Elem (a, List.map expr idxs)
  | Un (op, a) -> (
      let a = expr a in
      match (op, a) with
      | Neg, Int n -> Int (-n)
      | Neg, Float x -> Float (-.x)
      | Not, Bool b -> Bool (not b)
      | _ -> Un (op, a))
  | Bin (op, a, b) -> fold_bin op (expr a) (expr b)
  | Mylb (s, d) -> Mylb (section s, d)
  | Myub (s, d) -> Myub (section s, d)
  | Iown s -> Iown (section s)
  | Accessible s -> Accessible (section s)
  | Await s -> Await (section s)

and section s =
  {
    s with
    sel =
      List.map
        (function
          | All -> All
          | At e -> At (expr e)
          | Slice (a, b, c) -> (
              match (expr a, expr b, expr c) with
              (* lo:lo:s is the single point lo. *)
              | ea, eb, _ when ea = eb -> At ea
              | ea, eb, ec -> Slice (ea, eb, ec)))
        s.sel;
  }

and fold_bin op a b =
  match (op, a, b) with
  | Add, Int x, Int y -> Int (x + y)
  | Sub, Int x, Int y -> Int (x - y)
  | Mul, Int x, Int y -> Int (x * y)
  | Div, Int x, Int y when y <> 0 -> Int (x / y)
  | Mod, Int x, Int y when y <> 0 -> Int (x mod y)
  | Min, Int x, Int y -> Int (min x y)
  | Max, Int x, Int y -> Int (max x y)
  | Add, Float x, Float y -> Float (x +. y)
  | Sub, Float x, Float y -> Float (x -. y)
  | Mul, Float x, Float y -> Float (x *. y)
  | Div, Float x, Float y when y <> 0.0 -> Float (x /. y)
  | Eq, Int x, Int y -> Bool (x = y)
  | Ne, Int x, Int y -> Bool (x <> y)
  | Lt, Int x, Int y -> Bool (x < y)
  | Le, Int x, Int y -> Bool (x <= y)
  | Gt, Int x, Int y -> Bool (x > y)
  | Ge, Int x, Int y -> Bool (x >= y)
  (* Identities. *)
  | Add, e, Int 0 | Add, Int 0, e -> e
  | Sub, e, Int 0 -> e
  | Mul, e, Int 1 | Mul, Int 1, e -> e
  | Mul, _, Int 0 | Mul, Int 0, _ -> Int 0
  | Div, e, Int 1 -> e
  | And, Bool true, e | And, e, Bool true -> e
  | And, Bool false, _ | And, _, Bool false -> Bool false
  | Or, Bool false, e | Or, e, Bool false -> e
  | Or, Bool true, _ | Or, _, Bool true -> Bool true
  (* min/max of equal terms. *)
  | Min, x, y when x = y -> x
  | Max, x, y when x = y -> x
  (* e - (-c) -> e + c: keep constants canonical on the Add side. *)
  | Sub, e, Int c when c < 0 -> fold_bin Add e (Int (-c))
  (* (e + c1) + c2 -> e + (c1+c2); helps bounds folding. *)
  | Add, Bin (Add, e, Int c1), Int c2 -> fold_bin Add e (Int (c1 + c2))
  | Add, Bin (Sub, e, Int c1), Int c2 -> fold_bin Sub e (Int (c1 - c2))
  | Sub, Bin (Add, e, Int c1), Int c2 -> fold_bin Add e (Int (c1 - c2))
  | Sub, Bin (Sub, e, Int c1), Int c2 -> fold_bin Sub e (Int (c1 + c2))
  | _ -> Bin (op, a, b)

let rec stmt = function
  | Assign (Lvar v, e) -> Assign (Lvar v, expr e)
  | Assign (Lelem (a, idxs), e) ->
      Assign (Lelem (a, List.map expr idxs), expr e)
  | Guard (g, body) -> (
      match expr g with
      | Bool true -> Guard (Bool true, stmts body) (* kept; later passes drop it *)
      | g -> Guard (g, stmts body))
  | For fl ->
      For
        {
          fl with
          lo = expr fl.lo;
          hi = expr fl.hi;
          step = expr fl.step;
          body = stmts fl.body;
        }
  | If (c, a, b) -> If (expr c, stmts a, stmts b)
  | Send_value (s, d) ->
      Send_value
        ( section s,
          match d with
          | Unspecified -> Unspecified
          | Directed es -> Directed (List.map expr es) )
  | Send_owner s -> Send_owner (section s)
  | Send_owner_value s -> Send_owner_value (section s)
  | Recv_value { into; from } ->
      Recv_value { into = section into; from = section from }
  | Recv_owner s -> Recv_owner (section s)
  | Recv_owner_value s -> Recv_owner_value (section s)
  | Apply { fn; args } -> Apply { fn; args = List.map section args }

and stmts l = List.map stmt l

let program p = { p with body = stmts p.body }
let known_int e = match expr e with Int n -> Some n | _ -> None
