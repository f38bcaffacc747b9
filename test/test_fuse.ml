(* Loop fusion tests: legality checking including the XDP ownership
   rule of §4. *)

open Xdp.Ir
open Xdp.Build
module Exec = Xdp_runtime.Exec

let iv = var "i"
let jv = var "j"

let mk_loop var body = loop var (i 1) (i 4) body

let get_for = function
  | For fl -> fl
  | _ -> Alcotest.fail "expected For"

let fft_pair () =
  (* the paper's fusible pair: compute a slice, then send it away *)
  let l1 =
    get_for
      (mk_loop "j" [ apply "fft1D" [ sec "A" [ all; at jv; at mypid ] ] ])
  in
  let l2 =
    get_for
      (mk_loop "n" [ send_owner_value (sec "A" [ all; at (var "n"); at mypid ]) ])
  in
  (l1, l2)

let test_paper_pair_fuses () =
  let l1, l2 = fft_pair () in
  match Xdp.Fuse.fuse_pair ~decls:[] l1 l2 with
  | Ok fused ->
      Alcotest.(check int) "two statements" 2 (List.length fused.body);
      Alcotest.(check string) "renamed to j"
        "do j = 1, 4\n  fft1D(A[*,j,mypid])\n  A[*,j,mypid] -=>\nenddo"
        (Xdp.Pp.stmts_to_string [ For fused ])
  | Error e -> Alcotest.failf "refused: %s" e.reason

let test_header_mismatch_refused () =
  let l1, _ = fft_pair () in
  let l2 = get_for (loop "n" (i 1) (i 5) []) in
  match Xdp.Fuse.fuse_pair ~decls:[] l1 l2 with
  | Ok _ -> Alcotest.fail "should refuse"
  | Error e -> Alcotest.(check string) "reason" "loop headers differ" e.reason

let test_different_dims_refused () =
  (* row FFTs then column FFTs of the same array: iteration i of the
     second loop needs all iterations of the first *)
  let l1 =
    get_for (mk_loop "i" [ apply "fft1D" [ sec "A" [ at iv; all; at mypid ] ] ])
  in
  let l2 =
    get_for (mk_loop "j" [ apply "fft1D" [ sec "A" [ all; at jv; at mypid ] ] ])
  in
  match Xdp.Fuse.fuse_pair ~decls:[] l1 l2 with
  | Ok _ -> Alcotest.fail "must not fuse row/column sweeps"
  | Error _ -> ()

let test_no_loop_var_refused () =
  (* both loops touch the whole array every iteration *)
  let l1 = get_for (mk_loop "i" [ apply "scale2" [ sec "A" [ all ] ] ]) in
  let l2 = get_for (mk_loop "j" [ apply "negate" [ sec "A" [ all ] ] ]) in
  match Xdp.Fuse.fuse_pair ~decls:[] l1 l2 with
  | Ok _ -> Alcotest.fail "must not fuse whole-array sweeps"
  | Error _ -> ()

let test_ownership_query_refused () =
  (* loop 2 queries ownership of data loop 1 sends away: the §4
     legality rule *)
  let l1 =
    get_for (mk_loop "i" [ send_owner_value (sec "A" [ at iv; all; at mypid ]) ])
  in
  let l2 =
    get_for
      (mk_loop "j"
         [ iown (sec "A" [ at jv; all; at mypid ]) @: [ setv "x" (i 1) ] ])
  in
  match Xdp.Fuse.fuse_pair ~decls:[] l1 l2 with
  | Ok _ -> Alcotest.fail "ownership rule violated"
  | Error e ->
      Alcotest.(check bool) "mentions ownership" true
        (String.length e.reason > 0)

let test_disjoint_arrays_fuse () =
  let l1 = get_for (mk_loop "i" [ set "X" [ iv ] (f 1.0) ]) in
  let l2 = get_for (mk_loop "j" [ set "Y" [ jv ] (f 2.0) ]) in
  match Xdp.Fuse.fuse_pair ~decls:[] l1 l2 with
  | Ok fused -> Alcotest.(check int) "fused" 2 (List.length fused.body)
  | Error e -> Alcotest.failf "refused: %s" e.reason

let test_run_rewrites_adjacent () =
  let p =
    program ~name:"p" ~decls:[]
      [
        mk_loop "i" [ set "X" [ iv ] (f 1.0) ];
        mk_loop "j" [ set "Y" [ jv ] (f 2.0) ];
        mk_loop "k" [ set "Z" [ var "k" ] (f 3.0) ];
      ]
  in
  match (Xdp.Fuse.run p).body with
  | [ For fl ] -> Alcotest.(check int) "all three fused" 3 (List.length fl.body)
  | body -> Alcotest.failf "got:\n%s" (Xdp.Pp.stmts_to_string body)

let test_run_verbose_reports () =
  let p =
    program ~name:"p" ~decls:[]
      [
        mk_loop "i" [ apply "scale2" [ sec "A" [ all ] ] ];
        mk_loop "j" [ apply "negate" [ sec "A" [ all ] ] ];
      ]
  in
  let _, refusals = Xdp.Fuse.run_verbose p in
  Alcotest.(check int) "one refusal" 1 (List.length refusals)

(* fusion preserves semantics on the FFT program *)
let test_fused_fft_matches () =
  let n = 4 and nprocs = 4 in
  let expected =
    Xdp_runtime.Seq.array
      (Xdp_runtime.Seq.run ~init:Xdp_apps.Fft3d.init
         (Xdp_apps.Fft3d.sequential ~n ~nprocs))
      "A"
  in
  let localized =
    Xdp_apps.Fft3d.build ~n ~nprocs ~stage:Xdp_apps.Fft3d.Localized ()
  in
  let fused = Xdp.Fuse.run localized in
  let r = Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs fused in
  Alcotest.(check bool) "matches sequential" true
    (Xdp_util.Tensor.max_diff (Exec.array r "A") expected < 1e-9)

(* A scalar written by one loop and read by the other: fused, every
   B[i] would read the s of its own iteration instead of the last. *)
let test_scalar_dependence_refused () =
  let grid = Xdp_dist.Grid.linear 1 in
  let d name = decl ~name ~shape:[ 4 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid () in
  let p =
    program ~name:"p" ~decls:[ d "A"; d "B" ]
      [
        mk_loop "i" [ setv "s" (elem "A" [ iv ]) ];
        mk_loop "i" [ set "B" [ iv ] (var "s") ];
      ]
  in
  let fused, refusals = Xdp.Fuse.run_verbose p in
  Alcotest.(check (list string)) "reason"
    [ "scalar s is written by one loop and used by the other" ]
    (List.map (fun (r : Xdp.Fuse.refusal) -> r.reason) refusals);
  let b =
    Xdp_runtime.Seq.array
      (Xdp_runtime.Seq.run
         ~init:(fun _ idx -> float_of_int (List.hd idx))
         fused)
      "B"
  in
  Alcotest.(check (list (float 0.0))) "B" [ 4.; 4.; 4.; 4. ]
    (List.init 4 (fun k -> Xdp_util.Tensor.get b [ k + 1 ]))

let cube n =
  decl ~name:"A" ~shape:[ n; n; n ]
    ~dist:Xdp_dist.Dist.[ Star; Star; Block ]
    ~grid:(Xdp_dist.Grid.linear 1) ()

(* §4 at two planes per processor: the dim-1 FFT nest [do k { do j }]
   is interchanged, then fused with the row-piece ownership sends. *)
let test_fft_interchange_fuses () =
  let localized =
    Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~seg_rows:2
      ~stage:Xdp_apps.Fft3d.Localized ()
  in
  match localized.body with
  | [ _; For planes; For sends; _; _ ] -> (
      match Xdp.Fuse.fuse_pair ~decls:localized.decls planes sends with
      | Ok fused ->
          Alcotest.(check string) "interchanged and fused"
            (String.concat "\n"
               [
                 "do j = 1, 8";
                 "  do k = (((mypid - 1) * 2) + 1), (mypid * 2)";
                 "    fft1D(A[*,j,k])";
                 "  enddo";
                 "  do r = 1, 4";
                 "    A[(((r - 1) * 2) + 1):(r * 2),j,(((mypid - 1) * 2) + 1):(mypid * 2)] -=>";
                 "  enddo";
                 "enddo";
               ])
            (Xdp.Pp.stmts_to_string [ For fused ])
      | Error e -> Alcotest.failf "refused: %s" e.reason)
  | _ -> Alcotest.fail "unexpected localized FFT shape"

(* [do k = 1,4 { do j = 1,hi { fft(A[*,j,k]) } }] against a send loop
   over j: legal only through interchange. *)
let plane_pair ?(hi = i 4) ?(sel = [ all; at jv; at (var "k") ]) () =
  let l1 =
    get_for
      (loop "k" (i 1) (i 4)
         [ loop "j" (i 1) hi [ apply "fft1D" [ sec "A" sel ] ] ])
  in
  let l2 =
    get_for (loop "j" (i 1) hi [ send_owner_value (sec "A" [ all; at jv; all ]) ])
  in
  Xdp.Fuse.fuse_pair ~decls:[ cube 4 ] l1 l2

let fuses = function Ok _ -> true | Error _ -> false

let test_interchange_bounds_refused () =
  let max4 e = Bin (Max, i 4, e) in
  Alcotest.(check bool) "inner bounds free of k" true
    (fuses (plane_pair ~hi:(max4 (var "m")) ()));
  Alcotest.(check bool) "inner bounds mention k" false
    (fuses (plane_pair ~hi:(max4 (var "k")) ()))

let test_interchange_identity_refused () =
  Alcotest.(check bool) "A[*,j,k] written" true (fuses (plane_pair ()));
  Alcotest.(check bool) "A[*,j,k+1] written" false
    (fuses (plane_pair ~sel:[ all; at jv; at (var "k" +: i 1) ] ()))

(* Row pieces of column j: non-decreasing bounds widen to [*]; a
   piece order that runs backwards is refused. *)
let test_nonmonotone_slice_refused () =
  let grid = Xdp_dist.Grid.linear 1 in
  let decls =
    [ decl ~name:"A" ~shape:[ 4; 4 ] ~dist:Xdp_dist.Dist.[ Star; Block ] ~grid () ]
  in
  let pieces lo hi =
    get_for
      (mk_loop "j"
         [ loop "r" (i 1) (i 2) [ apply "scale2" [ sec "A" [ slice lo hi; at jv ] ] ] ])
  in
  let whole = get_for (mk_loop "j" [ apply "negate" [ sec "A" [ all; at jv ] ] ]) in
  let r = var "r" in
  Alcotest.(check bool) "forward pieces fuse" true
    (fuses
       (Xdp.Fuse.fuse_pair ~decls
          (pieces (((r -: i 1) *: i 2) +: i 1) (r *: i 2))
          whole));
  match
    Xdp.Fuse.fuse_pair ~decls
      (pieces (((i 2 -: r) *: i 2) +: i 1) ((i 3 -: r) *: i 2))
      whole
  with
  | Ok _ -> Alcotest.fail "backward pieces must not fuse"
  | Error e ->
      Alcotest.(check string) "reason"
        "A: a subscript is not non-decreasing in an inner loop" e.reason

(* A transpose inside the nest: the nest's iterations (k=1,j=2) and
   (k=2,j=1) exchange A[2,1] and A[1,2], so their order matters even
   though every access names both k and j. *)
let test_interchange_transpose_refused () =
  let kv = var "k" in
  let l1 =
    get_for
      (loop "k" (i 1) (i 2)
         [ loop "j" (i 1) (i 4) [ set "A" [ jv; kv ] (elem "A" [ kv; jv ]) ] ])
  in
  let l2 = get_for (loop "j" (i 1) (i 4) [ set "B" [ jv ] (f 1.0) ]) in
  Alcotest.(check bool) "transpose refused" false
    (fuses (Xdp.Fuse.fuse_pair ~decls:[] l1 l2));
  Alcotest.(check bool) "same positions fuse" true
    (fuses
       (Xdp.Fuse.fuse_pair ~decls:[]
          (get_for
             (loop "k" (i 1) (i 2)
                [
                  loop "j" (i 1) (i 4)
                    [ set "A" [ jv; kv ] (elem "A" [ jv; kv ] +: f 1.0) ];
                ]))
          l2))

(* After interchange the outer loop's bounds are evaluated inside the
   inner loop, where [j] is the loop variable, not the scalar: the
   square [A[1:4,1:j]] would become a triangle. *)
let test_interchange_outer_bounds_refused () =
  let nest hi =
    get_for
      (loop "k" (i 1) hi
         [ loop "j" (i 1) (i 4) [ set "A" [ jv; var "k" ] (f 1.0) ] ])
  in
  let l2 = get_for (loop "j" (i 1) (i 4) [ set "B" [ jv ] (f 1.0) ]) in
  Alcotest.(check bool) "outer bounds free of j" true
    (fuses (Xdp.Fuse.fuse_pair ~decls:[] (nest (var "m")) l2));
  Alcotest.(check bool) "outer bounds mention j" false
    (fuses (Xdp.Fuse.fuse_pair ~decls:[] (nest jv) l2))

(* Two 2-D nests over the same inner variable fuse: neither reads [j]
   outside its own loop.  A second loop that reads [j] outside it
   does not. *)
let test_shared_inner_variable_fuses () =
  let nest body = get_for (mk_loop "i" [ mk_loop "j" body ]) in
  let l1 = nest [ set "X" [ iv; jv ] (f 1.0) ] in
  (match
     Xdp.Fuse.fuse_pair ~decls:[] l1
       (nest [ set "Y" [ iv; jv ] (elem "X" [ iv; jv ]) ])
   with
  | Ok fused -> Alcotest.(check int) "fused" 2 (List.length fused.body)
  | Error e -> Alcotest.failf "refused: %s" e.reason);
  match
    Xdp.Fuse.fuse_pair ~decls:[] l1
      (get_for (mk_loop "i" [ set "Y" [ iv ] jv ]))
  with
  | Ok _ -> Alcotest.fail "j read after the first loop's j loop"
  | Error e ->
      Alcotest.(check string) "reason"
        "scalar j is written by one loop and used by the other" e.reason

(* Renaming the second loop's variable to the first's must not capture
   an inner loop of the same name. *)
let test_rename_capture_refused () =
  let kv = var "k" in
  let l1 = get_for (loop "k" (i 1) (i 4) [ set "X" [ kv ] (f 1.0) ]) in
  let l2 =
    get_for
      (loop "j" (i 1) (i 4)
         [ loop "k" (i 1) (i 4) [ set "Y" [ jv; kv ] (f 2.0) ] ])
  in
  match Xdp.Fuse.fuse_pair ~decls:[] l1 l2 with
  | Ok fused ->
      Alcotest.failf "captured:\n%s" (Xdp.Pp.stmts_to_string [ For fused ])
  | Error e ->
      Alcotest.(check string) "reason"
        "k: the second loop already uses the first loop's variable" e.reason

(* Differential property: whenever fuse_pair accepts a random loop
   pair, the fused program computes the same arrays as the original. *)
let gen_body =
  QCheck.Gen.(
    let acc arr =
      map
        (fun c -> `Accum (arr, c))
        (float_range 0.5 2.0)
    in
    let kernel arr = return (`Kernel arr) in
    let send arr = return (`OwnSend arr) in
    let query arr = return (`Query arr) in
    oneof
      [ acc "X"; acc "Y"; kernel "X"; kernel "Y"; send "X"; query "X" ])

(* [q] names the scalar a query assigns: each loop gets its own, since
   two loops assigning one scalar are refused for the scalar alone. *)
let spec_to_stmt q spec =
  let iv = var "i" in
  match spec with
  | `Accum (arr, c) -> set arr [ iv ] (elem arr [ iv ] +: f c)
  | `Kernel arr -> apply "scale2" [ sec arr [ at iv ] ]
  | `OwnSend arr -> send_owner_value (sec arr [ at iv ])
  | `Query arr -> iown (sec arr [ at iv ]) @: [ setv q (i 1) ]

let prop_fuse_differential =
  QCheck.Test.make ~name:"accepted fusions preserve semantics" ~count:60
    (QCheck.make
       ~print:(fun (a, b) ->
         Xdp.Pp.stmts_to_string
           [ mk_loop "i" (List.map (spec_to_stmt "q1") a);
             mk_loop "j"
               (List.map (spec_to_stmt "q2") b
               |> List.map (subst_stmt "i" (Var "j"))) ])
       QCheck.Gen.(pair (list_size (int_range 1 2) gen_body)
                     (list_size (int_range 1 2) gen_body)))
    (fun (spec1, spec2) ->
      (* only X/Y element-wise bodies: build two adjacent loops *)
      let l1 = get_for (mk_loop "i" (List.map (spec_to_stmt "q1") spec1)) in
      let l2 =
        get_for
          (mk_loop "j"
             (List.map (spec_to_stmt "q2") spec2
             |> List.map (subst_stmt "i" (Var "j"))))
      in
      (* reject pairs containing ownership sends without matching
         receives: they are not closed programs.  We simply skip specs
         with OwnSend for execution purposes (fuse_pair still sees
         queries). *)
      let has_send =
        List.exists (function `OwnSend _ -> true | _ -> false)
          (spec1 @ spec2)
      in
      match Xdp.Fuse.fuse_pair ~decls:[] l1 l2 with
      | Error _ -> true
      | Ok fused when has_send ->
          (* legality claims hold structurally; execution would need a
             matching receiver, so just sanity-check the shape *)
          List.length fused.body
          = List.length l1.body + List.length l2.body
      | Ok fused ->
          let grid = Xdp_dist.Grid.linear 2 in
          let decls =
            [
              decl ~name:"X" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ]
                ~grid ();
              decl ~name:"Y" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ]
                ~grid ();
            ]
          in
          (* guard the whole loops by per-element ownership so the SPMD
             execution is well-formed: wrap bodies in iown guards *)
          let guard_body (fl : for_loop) =
            {
              fl with
              body =
                [
                  iown (sec "X" [ at (Var fl.var) ])
                  @: List.map
                       (fun st ->
                         match st with
                         | Guard _ -> st
                         | st -> st)
                       fl.body;
                ];
            }
          in
          let prog name body =
            program ~name ~decls body
          in
          let init _ idx = float_of_int (List.hd idx) +. 0.5 in
          let r1 =
            Exec.run ~init ~nprocs:2
              (prog "unfused" [ For (guard_body l1); For (guard_body l2) ])
          in
          let r2 =
            Exec.run ~init ~nprocs:2 (prog "fused" [ For (guard_body fused) ])
          in
          Xdp_util.Tensor.equal (Exec.array r1 "X") (Exec.array r2 "X")
          && Xdp_util.Tensor.equal (Exec.array r1 "Y") (Exec.array r2 "Y"))

(* Differential property over two-level nests with permuted subscripts:
   [do k = 1,K { do j = 1,J { ... } }] then [do j = 1,J' { ... }], the
   second with an inner [do k = 1,K'] or with k fixed at 1, each
   statement addressing A or B at (j,k) or (k,j).  The headers differ
   unless K = J', so most accepted pairs go through interchange and
   footprint widening.  Whenever fuse_pair accepts, the sequential
   interpreter computes the same arrays and the same scalar [s]. *)
let gen_nest_stmt =
  QCheck.Gen.(
    let arr = oneofl [ "A"; "B" ] in
    frequency
      [
        ( 4,
          map
            (fun ((d, dp), (s, sp)) -> `Copy (d, dp, s, sp))
            (pair (pair arr bool) (pair arr bool)) );
        (1, map2 (fun a p -> `Save (a, p)) arr bool);
        (1, map2 (fun a p -> `Use (a, p)) arr bool);
      ])

let nest_stmt k spec =
  let sub p = if p then [ jv; k ] else [ k; jv ] in
  match spec with
  | `Copy (d, dp, s, sp) -> set d (sub dp) (elem s (sub sp) +: f 1.0)
  | `Save (a, p) -> setv "s" (elem a (sub p))
  | `Use (a, p) -> set a (sub p) (var "s")

let gen_nests =
  QCheck.Gen.(
    let ext = int_range 2 4 in
    let body = list_size (int_range 1 2) gen_nest_stmt in
    (* the second loop mostly runs over the first nest's j range, the
       only range it can fuse with after interchange *)
    let shape =
      triple ext ext ext >>= fun (k1, j1, e) ->
      map2
        (fun j2 k2 -> (k1, j1, j2, k2))
        (frequency [ (3, return j1); (1, return e) ])
        (opt (frequency [ (1, return k1); (1, ext) ]))
    in
    pair shape (pair body body))

let nests ((k1, j1, j2, k2), (b1, b2)) =
  let kv = var "k" in
  let l1 =
    loop "k" (i 1) (i k1)
      [ loop "j" (i 1) (i j1) (List.map (nest_stmt kv) b1) ]
  in
  let l2 =
    loop "j" (i 1) (i j2)
      (match k2 with
      | Some k2 -> [ loop "k" (i 1) (i k2) (List.map (nest_stmt kv) b2) ]
      | None -> List.map (nest_stmt (i 1)) b2)
  in
  (l1, l2)

let prop_nest_differential =
  QCheck.Test.make ~name:"accepted nest fusions preserve semantics"
    ~count:1000
    (QCheck.make
       ~print:(fun g ->
         let l1, l2 = nests g in
         Xdp.Pp.stmts_to_string [ l1; l2 ])
       gen_nests)
    (fun g ->
      let l1, l2 = nests g in
      let grid = Xdp_dist.Grid.linear 1 in
      let decls =
        List.map
          (fun name ->
            decl ~name ~shape:[ 4; 4 ]
              ~dist:Xdp_dist.Dist.[ Star; Block ]
              ~grid ())
          [ "A"; "B" ]
      in
      match Xdp.Fuse.fuse_pair ~decls (get_for l1) (get_for l2) with
      | Error _ -> true
      | Ok fused ->
          let run body =
            Xdp_runtime.Seq.run
              ~init:(fun name idx ->
                float_of_int
                  (List.fold_left (fun a x -> (10 * a) + x) 0 idx
                  + if name = "B" then 100 else 0))
              ~scalars:[ ("s", Xdp_runtime.Value.VFloat 0.0) ]
              (program ~name:"p" ~decls body)
          in
          let r1 = run [ l1; l2 ] and r2 = run [ For fused ] in
          List.for_all
            (fun a ->
              Xdp_util.Tensor.equal
                (Xdp_runtime.Seq.array r1 a)
                (Xdp_runtime.Seq.array r2 a))
            [ "A"; "B" ]
          && List.assoc "s" r1.scalars = List.assoc "s" r2.scalars)

let () =
  Alcotest.run "fuse"
    [
      ( "unit",
        [
          Alcotest.test_case "paper pair fuses" `Quick test_paper_pair_fuses;
          Alcotest.test_case "header mismatch" `Quick
            test_header_mismatch_refused;
          Alcotest.test_case "row/column refused" `Quick
            test_different_dims_refused;
          Alcotest.test_case "whole-array refused" `Quick
            test_no_loop_var_refused;
          Alcotest.test_case "ownership rule (§4)" `Quick
            test_ownership_query_refused;
          Alcotest.test_case "disjoint arrays fuse" `Quick
            test_disjoint_arrays_fuse;
          Alcotest.test_case "run rewrites chains" `Quick
            test_run_rewrites_adjacent;
          Alcotest.test_case "verbose refusals" `Quick test_run_verbose_reports;
          Alcotest.test_case "fused FFT verifies" `Quick test_fused_fft_matches;
          Alcotest.test_case "scalar dependence refused" `Quick
            test_scalar_dependence_refused;
          Alcotest.test_case "FFT interchange then fuse" `Quick
            test_fft_interchange_fuses;
          Alcotest.test_case "interchange: inner bounds" `Quick
            test_interchange_bounds_refused;
          Alcotest.test_case "interchange: identity subscripts" `Quick
            test_interchange_identity_refused;
          Alcotest.test_case "non-monotone slice refused" `Quick
            test_nonmonotone_slice_refused;
          Alcotest.test_case "interchange: transpose refused" `Quick
            test_interchange_transpose_refused;
          Alcotest.test_case "interchange: outer bounds" `Quick
            test_interchange_outer_bounds_refused;
          Alcotest.test_case "shared inner loop variable" `Quick
            test_shared_inner_variable_fuses;
          Alcotest.test_case "rename capture refused" `Quick
            test_rename_capture_refused;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_fuse_differential;
          QCheck_alcotest.to_alcotest prop_nest_differential;
        ] );
    ]
