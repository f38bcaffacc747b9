open Ir
open Build

(* Does [sec] qualify for bounds-localization on loop variable [v]?
   Returns the (1-based) dimension carrying the identity subscript. *)
let localizable_dim decls v s =
  match List.find_opt (fun d -> d.arr_name = s.arr) decls with
  | None -> None
  | Some d ->
      let layout = d.layout in
      if Xdp_dist.Grid.rank (Xdp_dist.Layout.grid layout) <> 1 then None
      else
        let dists = Xdp_dist.Layout.dist layout in
        if List.length s.sel <> List.length dists then None
        else
          let classified =
            List.mapi
              (fun d0 (sel, dist) ->
                match (Xdp_dist.Dist.distributed dist, sel) with
                | false, _ -> `Collapsed
                | true, At (Var x) when x = v -> `Localize (d0 + 1)
                | true, _ -> `Bad)
              (List.combine s.sel dists)
          in
          if List.exists (( = ) `Bad) classified then None
          else
            (match
               List.filter_map
                 (function `Localize d -> Some d | _ -> None)
                 classified
             with
            | [ dim ] -> Some (d, dim)
            | _ -> None)

(* A loop body consisting of one ownership-based guard.  [iown] guards
   become vacuous after bounds adjustment and are dropped; [await]
   guards are false on unowned sections, so bounds can be adjusted the
   same way, but the guard is kept for its synchronization (the
   paper's §4 Loop 4). *)
let guarded_body = function
  | [ Guard (Iown s, gbody) ] -> Some (s, gbody, `Drop)
  | [ Guard (Await s, gbody) ] ->
      Some (s, [ Guard (Await s, gbody) ], `Keep)
  | _ -> None

(* Affine check by evaluation: [e(v)] equals [f v] for v = 1 and 2
   (sufficient for affine expressions of one variable). *)
let affine_matches v e f =
  List.for_all
    (fun t ->
      match Simplify.known_int (subst_expr v (Int t) e) with
      | Some x -> x = f t
      | None -> false)
    [ 1; 2 ]

(* A loop [do v = 1, P { iown(A[..., (v-1)b+1 : vb, ...]) : body }]
   over all processors, selecting the whole dim-[d] block of processor
   [v]: each processor executes exactly the iteration [v = mypid], so
   the loop and guard collapse to the body with [v := mypid].  This is
   the paper's §4 Loop 3 shape. *)
let localize_block_loop decls (fl : for_loop) =
  match guarded_body fl.body with
  | Some (s, gbody, _mode)
    when fl.step = Int 1
         && Simplify.known_int fl.lo = Some 1 -> (
      match List.find_opt (fun d -> d.arr_name = s.arr) decls with
      | None -> None
      | Some d ->
          let layout = d.layout in
          let procs = Xdp_dist.Layout.nprocs layout in
          if
            Xdp_dist.Grid.rank (Xdp_dist.Layout.grid layout) <> 1
            || Simplify.known_int fl.hi <> Some procs
          then None
          else
            let dists = Xdp_dist.Layout.dist layout in
            let shape = Xdp_dist.Layout.shape layout in
            if List.length s.sel <> List.length dists then None
            else
              let classified =
                List.mapi
                  (fun d0 (sel, dist) ->
                    match ((dist : Xdp_dist.Dist.t), sel) with
                    | Star, _ -> `Collapsed
                    | Block, Slice (lo, hi, Int 1) ->
                        let extent = List.nth shape d0 in
                        let b =
                          Xdp_dist.Dist.block_size ~extent ~procs
                        in
                        if
                          b * procs = extent
                          && affine_matches fl.var lo (fun v ->
                                 ((v - 1) * b) + 1)
                          && affine_matches fl.var hi (fun v -> v * b)
                        then `Block_of d0
                        else `Bad
                    | _, _ -> `Bad)
                  (List.combine s.sel dists)
              in
              if List.exists (( = ) `Bad) classified then None
              else if
                List.length
                  (List.filter
                     (function `Block_of _ -> true | _ -> false)
                     classified)
                <> 1
              then None
              else
                Some (List.map (subst_stmt fl.var Mypid) gbody))
  | _ -> None

let localize_loop decls (fl : for_loop) =
  match guarded_body fl.body with
  | Some (s, gbody, _mode) when fl.step = Int 1 -> (
      match localizable_dim decls fl.var s with
      | None -> None
      | Some (d, dim) -> (
          let layout = d.layout in
          let extent = List.nth (Xdp_dist.Layout.shape layout) (dim - 1) in
          let dist = List.nth (Xdp_dist.Layout.dist layout) (dim - 1) in
          let procs = Xdp_dist.Layout.nprocs layout in
          match dist with
          | Xdp_dist.Dist.Block ->
              let b = Xdp_dist.Dist.block_size ~extent ~procs in
              let lb = ((mypid -: i 1) *: i b) +: i 1 in
              let ub_raw = mypid *: i b in
              let even = b * procs = extent in
              let ub = if even then ub_raw else emin (i extent) ub_raw in
              let lo' =
                match Simplify.known_int fl.lo with
                | Some l when l <= 1 -> lb
                | _ -> emax fl.lo lb
              in
              let hi' =
                match Simplify.known_int fl.hi with
                | Some h when h >= extent -> ub
                | _ -> emin fl.hi ub
              in
              Some
                (For
                   {
                     fl with
                     lo = Simplify.expr lo';
                     hi = Simplify.expr hi';
                     body = gbody;
                     local_range = Some (s.arr, dim);
                   })
          | Xdp_dist.Dist.Cyclic -> (
              match Simplify.known_int fl.lo with
              | Some 1 ->
                  Some
                    (For
                       {
                         fl with
                         lo = mypid;
                         step = i procs;
                         body = gbody;
                         local_range = Some (s.arr, dim);
                       })
              | _ -> None)
          | Xdp_dist.Dist.Star | Xdp_dist.Dist.Block_cyclic _ -> None))
  | _ -> None

(* Substitute the induction variable and drop single-iteration loops
   (the paper's "replacing all references to the loop's induction
   variable in the body by mypid" step). *)
let collapse_stmts stmts =
  let once stmts =
    map_stmts
      (fun stmts ->
        List.concat_map
          (function
            | For fl
              when Simplify.expr fl.lo = Simplify.expr fl.hi
                   && (expr_effects fl.lo).scalar_reads = [] ->
                List.map (subst_stmt fl.var (Simplify.expr fl.lo)) fl.body
            | s -> [ s ])
          stmts)
      stmts
  in
  (* Collapsing an outer loop can make an inner loop's bounds
     constant (e.g. §4's Loop 3 after [p := mypid]); iterate to a
     fixpoint. *)
  let rec fix stmts =
    let stmts' = once stmts in
    if equal_stmt (Guard (Bool true, stmts)) (Guard (Bool true, stmts'))
    then stmts
    else fix stmts'
  in
  fix stmts

let run_stmts ~decls stmts =
  let stmts =
    map_stmts
      (fun stmts ->
        List.concat_map
          (function
            | For fl -> (
                match localize_block_loop decls fl with
                | Some body -> body
                | None -> (
                    match localize_loop decls fl with
                    | Some s -> [ s ]
                    | None -> [ For fl ]))
            | s -> [ s ])
          stmts)
      stmts
  in
  List.map Simplify.stmt (collapse_stmts stmts)

let run p = { p with body = run_stmts ~decls:p.decls p.body }
let collapse p = Simplify.program { p with body = collapse_stmts p.body }
