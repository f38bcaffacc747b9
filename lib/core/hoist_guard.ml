open Ir

(* await must not move (it is a synchronization point), and
   accessible() can flip asynchronously when a pre-loop receive's
   delivery lands mid-loop, so neither may be hoisted.  iown() is
   stable across the loop when the body performs no ownership
   operations: only the executing processor's own transfer statements
   change its ownership.  Beyond that, the body writes no scalar and
   no array the guard reads; ownership transfers and receives count as
   writes of their array. *)
let hoistable fl g =
  let ge = expr_effects g in
  (not (ge.awaits || ge.tests_accessible))
  && (not (List.mem fl.var ge.scalar_reads))
  &&
  let eff = effects fl.body in
  List.for_all
    (fun v -> not (List.mem v (eff.scalar_writes @ eff.loop_vars)))
    ge.scalar_reads
  && List.for_all
       (fun a ->
         not (List.exists (fun w -> w.acc_write && w.acc_arr = a) eff.accesses))
       (arrays ge)

let run p =
  let body =
    map_stmts
      (fun stmts ->
        List.map
          (function
            | For ({ body = [ Guard (g, inner) ]; _ } as fl)
              when hoistable fl g ->
                Guard (g, [ For { fl with body = inner } ])
            | s -> s)
          stmts)
      p.body
  in
  { p with body }
