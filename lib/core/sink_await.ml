open Ir

(* Dimensions (0-based) where [inner] is [At (Var v)] while [outer] is
   [All]; all other dimensions must agree syntactically. *)
let narrowing_dims v outer inner =
  if List.length outer <> List.length inner then None
  else
    let rec go d0 acc = function
      | [] -> Some (List.rev acc)
      | (All, At (Var x)) :: rest when x = v -> go (d0 + 1) (d0 :: acc) rest
      | (a, b) :: rest when a = b -> go (d0 + 1) acc rest
      | _ -> None
    in
    go 0 [] (List.combine outer inner)

(* All section-shaped references to array [arr] in a statement list. *)
let refs_to arr body =
  List.filter_map
    (fun a -> if a.acc_arr = arr then Some a.acc_sel else None)
    (effects body).accesses

let sink = function
  | Guard (Await s, [ For fl ]) -> (
      let refs = refs_to s.arr fl.body in
      match refs with
      | [] -> None
      | first :: _ -> (
          match narrowing_dims fl.var s.sel first with
          | None | Some [] -> None
          | Some dims ->
              let consistent =
                List.for_all
                  (fun sel ->
                    match narrowing_dims fl.var s.sel sel with
                    | Some d -> d = dims
                    | None -> false)
                  refs
              in
              if not consistent then None
              else
                let narrowed =
                  {
                    s with
                    sel =
                      List.mapi
                        (fun d0 sel ->
                          if List.mem d0 dims then At (Var fl.var) else sel)
                        s.sel;
                  }
                in
                Some (For { fl with body = [ Guard (Await narrowed, fl.body) ] })
          ))
  | _ -> None

let run p =
  let body =
    map_stmts
      (fun stmts ->
        List.map (fun st -> match sink st with Some s -> s | None -> st) stmts)
      p.body
  in
  { p with body }
