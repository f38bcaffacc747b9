open Ir

(* Same owner on every processor: equal layouts and syntactically
   equal subscripts in every distributed dimension. *)
let co_located decls sa sb =
  match
    ( List.find_opt (fun d -> d.arr_name = sa.arr) decls,
      List.find_opt (fun d -> d.arr_name = sb.arr) decls )
  with
  | Some da, Some db ->
      Xdp_dist.Layout.equal da.layout db.layout
      && List.length sa.sel = List.length sb.sel
      && List.for_all2
           (fun (sela, selb) dist ->
             if Xdp_dist.Dist.distributed dist then sela = selb else true)
           (List.combine sa.sel sb.sel)
           (Xdp_dist.Layout.dist da.layout)
  | _ -> false

(* Replace reads of T[anything] by the element expression of [src]. *)
let rec replace_temp tname src e =
  match e with
  | Elem (a, _) when a = tname -> src
  | Elem (a, idxs) -> Elem (a, List.map (replace_temp tname src) idxs)
  | Bin (op, x, y) ->
      Bin (op, replace_temp tname src x, replace_temp tname src y)
  | Un (op, x) -> Un (op, replace_temp tname src x)
  | e -> e

(* Drop an await conjunct mentioning [tname] from a guard expression;
   returns None when the whole guard was just that await. *)
let rec drop_await tname g =
  match g with
  | Await s when s.arr = tname -> None
  | Bin (And, a, b) -> (
      match (drop_await tname a, drop_await tname b) with
      | None, None -> None
      | Some x, None | None, Some x -> Some x
      | Some x, Some y -> Some (Bin (And, x, y)))
  | g -> Some g

let elem_expr_of_section s =
  let idxs =
    List.map
      (function
        | At e -> Some e
        | All | Slice _ -> None)
      s.sel
  in
  if List.for_all Option.is_some idxs then
    Some (Elem (s.arr, List.map Option.get idxs))
  else None

(* Remove the receive of [from_sec] into temp [t] from a guard body and
   rewrite the uses of the temp. *)
let rewrite_recv_body decls tname from_sec body =
  match elem_expr_of_section from_sec with
  | None -> None
  | Some src ->
      let rec go stmts =
        List.filter_map
          (fun s ->
            match s with
            | Recv_value { into; _ } when into.arr = tname -> None
            | Guard (g, inner) -> (
                let inner = go inner in
                match drop_await tname g with
                | None -> (
                    match inner with
                    | [] -> None
                    | _ ->
                        (* Guard was only the await: splice body up. *)
                        Some (Guard (Bool true, inner)))
                | Some g -> Some (Guard (rewrite_expr g, inner)))
            | Assign (lhs, e) -> Some (Assign (lhs, rewrite_expr e))
            | s -> Some s)
          stmts
      and rewrite_expr e = replace_temp tname src e in
      ignore decls;
      Some (go body)

(* Splice Guard(true, body) produced above. *)
let splice_true stmts =
  map_stmts
    (fun stmts ->
      List.concat_map
        (function Guard (Bool true, body) -> body | s -> [ s ])
        stmts)
    stmts

let is_send_guard = function
  | Guard (Iown sb, [ Send_value (sb', _) ]) -> equal_section sb sb'
  | _ -> false

let send_section = function
  | Guard (Iown sb, [ Send_value _ ]) -> sb
  | _ -> assert false

let run p =
  let rewrite stmts =
    (* A lowered assignment appears as a run of send guards followed by
       the owner's receive guard; eliminate each send whose section is
       provably co-located with the receiver. *)
    let rec go = function
      | [] -> []
      | (s0 :: _) as stmts when is_send_guard s0 -> (
          let rec span acc = function
            | s :: rest when is_send_guard s -> span (s :: acc) rest
            | rest -> (List.rev acc, rest)
          in
          let sends, rest = span [] stmts in
          match rest with
          | Guard (Iown sa, gbody) :: tail ->
              let kept, gbody' =
                List.fold_left
                  (fun (kept, gbody) send_stmt ->
                    let sb = send_section send_stmt in
                    if not (co_located p.decls sa sb) then
                      (send_stmt :: kept, gbody)
                    else
                      let temp =
                        List.find_map
                          (function
                            | Recv_value { into; from }
                              when equal_section from sb
                                   && String.length into.arr >= 3
                                   && String.sub into.arr 0 3 = "__T" ->
                                Some into.arr
                            | _ -> None)
                          gbody
                      in
                      match temp with
                      | None -> (send_stmt :: kept, gbody)
                      | Some tname -> (
                          match rewrite_recv_body p.decls tname sb gbody with
                          | None -> (send_stmt :: kept, gbody)
                          | Some gbody' -> (kept, gbody')))
                  ([], gbody) sends
              in
              List.rev kept @ (Guard (Iown sa, gbody') :: go tail)
          | _ -> sends @ go rest)
      | s :: rest -> s :: go rest
    in
    go stmts
  in
  let body = map_stmts rewrite p.body in
  let body = splice_true body in
  (* Drop temp declarations that are no longer referenced. *)
  let used = arrays (effects body) in
  let decls =
    List.filter
      (fun d ->
        (not
           (String.length d.arr_name >= 3
           && String.sub d.arr_name 0 3 = "__T"))
        || List.mem d.arr_name used)
      p.decls
  in
  { p with decls; body }
