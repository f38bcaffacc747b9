open Ir
open Build

type ctx = {
  nprocs : int;
  direct : bool;
  allow_xdp : bool;
  decls : array_decl list;
  mutable fresh : int;
  mutable new_decls : array_decl list; (* reversed *)
}

let fresh_temp ctx =
  ctx.fresh <- ctx.fresh + 1;
  let name = Printf.sprintf "__T%d" ctx.fresh in
  let d =
    decl ~name ~shape:[ ctx.nprocs ]
      ~dist:[ Xdp_dist.Dist.Block ]
      ~grid:(Xdp_dist.Grid.linear ctx.nprocs)
      ~seg_shape:[ 1 ] ()
  in
  ctx.new_decls <- d :: ctx.new_decls;
  name

(* Element references in [e] other than an exact reference to the
   assignment target itself. *)
let remote_refs ~target e =
  List.fold_left
    (fun refs a ->
      if a.acc_owner_op then
        invalid_arg "Lower: XDP intrinsic in sequential input";
      let r =
        (a.acc_arr, List.map (function At x -> x | _ -> assert false) a.acc_sel)
      in
      if Some r <> target && not (List.mem r refs) then r :: refs else refs)
    [] (expr_effects e).accesses
  |> List.rev

let lower_assign ctx lhs rhs =
  match lhs with
  | Lelem (a, idxs) ->
      let target = Some (a, idxs) in
      let refs = remote_refs ~target rhs in
      let temps = List.map (fun r -> (fresh_temp ctx, r)) refs in
      (* When the receiver (the owner of the assignment target) is
         statically expressible, direct the send to it.  Undirected
         sends of the same name from several iterations can cross-match
         between receivers and deadlock (see test_semantics), which is
         why the paper calls this annotation "essential for code
         generation" (§3.2). *)
      let receiver =
        if not ctx.direct then None
        else
          match List.find_opt (fun d -> d.arr_name = a) ctx.decls with
          | None -> None
          | Some d ->
              Owner_expr.of_section d.layout (sec a (List.map at idxs))
      in
      let sends =
        List.map
          (fun (_, (b, bidxs)) ->
            let s = sec b (List.map at bidxs) in
            match receiver with
            | Some pid -> iown s @: [ send_to s [ pid ] ]
            | None -> iown s @: [ send s ])
          temps
      in
      let recvs =
        List.map
          (fun (t, (b, bidxs)) ->
            recv ~into:(sec t [ at mypid ]) ~from:(sec b (List.map at bidxs)))
          temps
      in
      (* Substitute each remote ref by its temp element. *)
      let rhs' =
        List.fold_left
          (fun e (t, (b, bidxs)) ->
            let rec go = function
              | Elem (a', idxs') when a' = b && idxs' = bidxs ->
                  Elem (t, [ Mypid ])
              | Elem (a', idxs') -> Elem (a', List.map go idxs')
              | Bin (op, x, y) -> Bin (op, go x, go y)
              | Un (op, x) -> Un (op, go x)
              | e -> e
            in
            go e)
          rhs temps
      in
      let awaits =
        List.fold_left
          (fun acc (t, _) ->
            let aw = await (sec t [ at mypid ]) in
            match acc with None -> Some aw | Some g -> Some (g &&: aw))
          None temps
      in
      let assign_stmt = set a idxs rhs' in
      let inner =
        match awaits with
        | None -> [ assign_stmt ]
        | Some g -> [ g @: [ assign_stmt ] ]
      in
      let lhs_sec = sec a (List.map at idxs) in
      sends @ [ iown lhs_sec @: (recvs @ inner) ]
  | Lvar v ->
      let refs = remote_refs ~target:None rhs in
      if refs = [] then [ setv v rhs ]
      else
        let temps = List.map (fun r -> (fresh_temp ctx, r)) refs in
        let all_pids = List.init ctx.nprocs (fun p -> i (p + 1)) in
        let sends =
          List.map
            (fun (_, (b, bidxs)) ->
              let s = sec b (List.map at bidxs) in
              iown s @: [ send_to s all_pids ])
            temps
        in
        let recvs =
          List.map
            (fun (t, (b, bidxs)) ->
              recv ~into:(sec t [ at mypid ])
                ~from:(sec b (List.map at bidxs)))
            temps
        in
        let rhs' =
          List.fold_left
            (fun e (t, (b, bidxs)) ->
              let rec go = function
                | Elem (a', idxs') when a' = b && idxs' = bidxs ->
                    Elem (t, [ Mypid ])
                | Elem (a', idxs') -> Elem (a', List.map go idxs')
                | Bin (op, x, y) -> Bin (op, go x, go y)
                | Un (op, x) -> Un (op, go x)
                | e -> e
              in
              go e)
            rhs temps
        in
        let awaits =
          List.fold_left
            (fun acc (t, _) ->
              let aw = await (sec t [ at mypid ]) in
              match acc with None -> Some aw | Some g -> Some (g &&: aw))
            None temps
        in
        sends @ recvs
        @ [
            (match awaits with
            | None -> setv v rhs'
            | Some g -> g @: [ setv v rhs' ]);
          ]

let rec lower_stmt ctx = function
  | Assign (lhs, rhs) -> lower_assign ctx lhs rhs
  | For fl -> [ For { fl with body = lower_stmts ctx fl.body } ]
  | If (c, a, b) ->
      (* The condition must be universally evaluable; array refs in
         conditions are not supported by this lowering. *)
      if (expr_effects c).accesses <> [] then
        invalid_arg "Lower: array reference in if-condition unsupported";
      [ If (c, lower_stmts ctx a, lower_stmts ctx b) ]
  | Apply { fn; args } ->
      (* Owner-computes for kernels: the owner of the (first) argument
         section applies the kernel. *)
      (match args with
      | [] -> invalid_arg "Lower: kernel with no arguments"
      | first :: _ -> [ iown first @: [ Apply { fn; args } ] ])
  | ( Guard _ | Send_value _ | Send_owner _ | Send_owner_value _
    | Recv_value _ | Recv_owner _ | Recv_owner_value _ ) as s ->
      (* Already-SPMD regions (e.g. produced by Shift_halo) pass
         through untouched when permitted. *)
      if ctx.allow_xdp then [ s ]
      else invalid_arg "Lower: input already contains XDP constructs"

and lower_stmts ctx stmts = List.concat_map (lower_stmt ctx) stmts

let run ?(direct = true) ?(allow_xdp = false) ~nprocs (p : program) =
  let ctx =
    { nprocs; direct; allow_xdp; decls = p.decls; fresh = 0; new_decls = [] }
  in
  let body = lower_stmts ctx p.body in
  {
    prog_name = p.prog_name ^ "+xdp";
    decls = p.decls @ List.rev ctx.new_decls;
    body;
  }
