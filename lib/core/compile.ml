open Ir

type result = { compiled : program; balance : Match_check.verdict }

(* The driver's input must be plain sequential IL: the permissive
   lowering below exists only so Shift_halo's own output passes
   through. *)
let rec has_xdp stmts =
  List.exists
    (function
      | Guard _ | Send_value _ | Send_owner _ | Send_owner_value _
      | Recv_value _ | Recv_owner _ | Recv_owner_value _ ->
          true
      | For { body; _ } -> has_xdp body
      | If (_, a, b) -> has_xdp a || has_xdp b
      | Assign _ | Apply _ -> false)
    stmts

let optimize ?observe ~nprocs p =
  if has_xdp p.body then
    invalid_arg "Compile.optimize: input already contains XDP constructs";
  let pass name f q =
    let q = f q in
    Option.iter (fun f -> f name q) observe;
    q
  in
  let q =
    p
    |> pass "shift-halo" (Shift_halo.run ~nprocs)
    |> pass "lower" (Lower.run ~allow_xdp:true ~nprocs)
    |> pass "elim-comm" Elim_comm.run
    |> pass "localize" Localize.run
    |> pass "hoist-guard" Hoist_guard.run
    |> pass "fuse" Fuse.run
    |> pass "bind" Bind.run
    |> pass "simplify" Simplify.program
  in
  Wf.check_exn q;
  { compiled = q; balance = Match_check.check q }
