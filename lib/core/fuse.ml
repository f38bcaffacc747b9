open Ir

type refusal = { reason : string }

let refuse fmt = Printf.ksprintf (fun reason -> Error { reason }) fmt
let ( let* ) = Result.bind
let mentions v e = List.mem v (free_vars_expr e)

let sel_mentions v = function
  | All -> false
  | At e -> mentions v e
  | Slice (a, b, c) -> List.exists (mentions v) [ a; b; c ]

(* The positions where [v] is an identity subscript. *)
let identity_dims v sel =
  List.concat (List.mapi (fun d s -> if s = At (Var v) then [ d ] else []) sel)

(* The slope of [e] in [v] when [e] is affine in [v] with a known
   integer coefficient. *)
let rec slope v e =
  if not (mentions v e) then Some 0
  else
    match e with
    | Var _ -> Some 1
    | Bin (((Add | Sub) as op), a, b) -> (
        match (slope v a, slope v b) with
        | Some x, Some y -> Some (if op = Add then x + y else x - y)
        | _ -> None)
    | Bin (Mul, a, b) -> (
        match (Simplify.known_int a, Simplify.known_int b) with
        | Some k, _ -> Option.map (( * ) k) (slope v b)
        | _, Some k -> Option.map (( * ) k) (slope v a)
        | None, None -> None)
    | Un (Neg, a) -> Option.map Int.neg (slope v a)
    | _ -> None

(* The footprint of [sel] over every iteration of the inner loop [fl]:
   a subscript [e] is the slice [e:e], and a slice whose bounds are
   non-decreasing in the loop variable spans [a[v:=lo] : b[v:=hi]].
   [None] when a bound is not.  A span over the declared extent
   [1 : extent d] is [*]. *)
let widen_over extent fl sel =
  let v = fl.var in
  let dim d s =
    match s with
    | (At a | Slice (a, _, _)) when sel_mentions v s -> (
        let b, c = match s with Slice (_, b, c) -> (b, c) | _ -> (a, Int 1) in
        match (slope v a, slope v b) with
        | Some sa, Some sb when sa >= 0 && sb >= 0 && not (mentions v c) ->
            let a = Simplify.expr (subst_expr v fl.lo a)
            and b = Simplify.expr (subst_expr v fl.hi b) in
            Some
              (if a = b then At a
               else if
                 a = Int 1 && Some b = Option.map (fun n -> Int n) (extent d)
               then All
               else Slice (a, b, Int 1))
        | _ -> None)
    | s -> Some s
  in
  let dims = List.mapi dim sel in
  if List.mem None dims then None else Some (List.filter_map Fun.id dims)

(* An access's selector widened over the inner loops enclosing it,
   innermost first. *)
let footprint ~decls a =
  let extent d =
    match List.find_opt (fun dc -> dc.arr_name = a.acc_arr) decls with
    | Some dc -> List.nth_opt (Xdp_dist.Layout.shape dc.layout) d
    | None -> None
  in
  List.fold_left
    (fun sel fl -> Option.bind sel (widen_over extent fl))
    (Some a.acc_sel) a.acc_loops

(* Every access to [arr] in either body, widened to its footprint,
   must carry the loop variable as an identity subscript at the same
   positions and agree in every other subscript, which must not mention
   it: iteration [i] of both loops then touches exactly the same slice. *)
let check_array_pair ~decls var accs1 accs2 arr =
  let mine l = List.filter (fun a -> a.acc_arr = arr) l in
  let a1 = mine accs1 and a2 = mine accs2 in
  let shape sel =
    let rest = List.filter (fun s -> s <> At (Var var)) sel in
    if List.exists (sel_mentions var) rest then None
    else Some (identity_dims var sel, rest)
  in
  let shapes a = Option.map shape (footprint ~decls a) in
  match List.sort_uniq compare (List.map shapes (a1 @ a2)) with
  | _ when a1 = [] || a2 = [] -> Ok ()
  | [ Some (Some ([], _)) ] ->
      refuse
        "%s accessed by both loops without the loop variable \
         (cross-iteration dependence possible)"
        arr
  | [ Some (Some _) ] -> Ok ()
  | None :: _ ->
      refuse "%s: a subscript is not non-decreasing in an inner loop" arr
  | Some None :: _ ->
      refuse "%s: loop variable appears in a non-identity subscript" arr
  | _ ->
      refuse "%s: accesses do not all address the same per-iteration slice"
        arr

(* XDP rule: if one body transfers ownership of [arr], the other body
   must not perform ownership queries on it. *)
let check_ownership_rule accs1 accs2 =
  let arrs p l =
    List.filter_map (fun a -> if p a then Some a.acc_arr else None) l
  in
  let sends = arrs (fun a -> a.acc_owner_op && a.acc_write)
  and queries = arrs (fun a -> a.acc_owner_op && not a.acc_write) in
  let bad =
    List.filter (fun arr -> List.mem arr (queries accs2)) (sends accs1)
    @ List.filter (fun arr -> List.mem arr (queries accs1)) (sends accs2)
  in
  match bad with
  | [] -> Ok ()
  | arr :: _ ->
      refuse "%s: ownership query may observe an in-flight ownership transfer"
        arr

(* Fusion would interleave the scalar uses of the two bodies.  Two
   loops over the same [j] clash only when one reads [j] outside it. *)
let check_scalars var e1 e2 =
  let writes e = e.scalar_writes @ e.loop_vars in
  let clash xs ys = List.find_opt (fun v -> v <> var && List.mem v ys) xs in
  match
    List.find_map Fun.id
      [
        clash (writes e1) e2.scalar_reads;
        clash (writes e2) e1.scalar_reads;
        clash e1.scalar_writes (writes e2);
        clash e2.scalar_writes (writes e1);
      ]
  with
  | Some v -> refuse "scalar %s is written by one loop and used by the other" v
  | None -> Ok ()

let fuse_same ~decls (l1 : for_loop) (l2 : for_loop) =
  let e2 = effects l2.body in
  if l1.lo <> l2.lo || l1.hi <> l2.hi || l1.step <> l2.step then
    refuse "loop headers differ"
  else if
    l2.var <> l1.var
    && List.mem l1.var (e2.scalar_writes @ e2.loop_vars @ e2.scalar_reads)
  then
    (* renaming [l2.var] to [l1.var] would capture its use *)
    refuse "%s: the second loop already uses the first loop's variable" l1.var
  else
    let body2 =
      if l2.var = l1.var then l2.body
      else List.map (subst_stmt l2.var (Var l1.var)) l2.body
    in
    let e1 = effects l1.body and e2 = effects body2 in
    let arrays =
      List.sort_uniq compare
        (List.map (fun a -> a.acc_arr) (e1.accesses @ e2.accesses))
    in
    let* () =
      List.fold_left
        (fun acc arr ->
          let* () = acc in
          check_array_pair ~decls l1.var e1.accesses e2.accesses arr)
        (Ok ()) arrays
    in
    let* () = check_ownership_rule e1.accesses e2.accesses in
    let* () = check_scalars l1.var e1 e2 in
    Ok
      {
        l1 with
        body = l1.body @ body2;
        local_range =
          (if l1.local_range = l2.local_range then l1.local_range else None);
      }

(* [do o { do n { body } }] as [do n { do o { body } }] when its
   iterations are independent (see the interface).  The body must also
   not bind [o], [n] or a loop variable it reads outside its loop. *)
let interchange (outer : for_loop) =
  match outer.body with
  | [ For inner ] when inner.var <> outer.var ->
      let o = outer.var and n = inner.var in
      let eff = effects inner.body in
      let header_free v fl =
        not (List.exists (mentions v) [ fl.lo; fl.hi; fl.step ])
      in
      let disjoint arr =
        let dims a = (identity_dims o a.acc_sel, identity_dims n a.acc_sel) in
        match
          List.sort_uniq compare
            (List.filter_map
               (fun a -> if a.acc_arr = arr then Some (dims a) else None)
               eff.accesses)
        with
        | [ (_ :: _, _ :: _) ] -> true
        | _ -> false
      in
      let written =
        List.filter_map
          (fun a -> if a.acc_write then Some a.acc_arr else None)
          eff.accesses
      in
      if
        header_free o inner && header_free n outer
        && eff.scalar_writes = []
        && List.for_all
             (fun v -> v <> o && v <> n && not (List.mem v eff.scalar_reads))
             eff.loop_vars
        && List.for_all disjoint written
      then Some { inner with body = [ For { outer with body = inner.body } ] }
      else None
  | _ -> None

let fuse_pair ~decls l1 l2 =
  match fuse_same ~decls l1 l2 with
  | Ok fused -> Ok fused
  | Error e -> (
      match Option.map (fun l -> fuse_same ~decls l l2) (interchange l1) with
      | Some (Ok fused) -> Ok fused
      | _ -> Error e)

let run_verbose p =
  let refusals = ref [] in
  let rec fuse_list = function
    | For l1 :: rest -> (
        match fuse_list rest with
        | For l2 :: tail as rest -> (
            match fuse_pair ~decls:p.decls l1 l2 with
            | Ok fused -> For fused :: tail
            | Error e ->
                refusals := e :: !refusals;
                For l1 :: rest)
        | rest -> For l1 :: rest)
    | s :: rest -> s :: fuse_list rest
    | [] -> []
  in
  let body = map_stmts fuse_list p.body in
  ({ p with body }, List.rev !refusals)

let run p = fst (run_verbose p)
