open Ir

type result = { compiled : program; balance : Match_check.verdict }

(* The driver's input must be plain sequential IL: the permissive
   lowering below exists only so Shift_halo's own output passes
   through. *)
let has_xdp stmts =
  let e = effects stmts in
  e.guards || e.transfers

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
