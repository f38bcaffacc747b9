(* IR structural helpers: substitution, free variables, traversal,
   array collection, the eDSL. *)

open Xdp.Ir
open Xdp.Build

let expr_t = Alcotest.testable Xdp.Pp.pp_expr equal_expr
let iv = var "i"

let test_edsl_builds_expected_shapes () =
  Alcotest.(check bool) "binop" true
    (equal_expr (iv +: i 1) (Bin (Add, Var "i", Int 1)));
  Alcotest.(check bool) "section" true
    (equal_section
       (sec "A" [ at iv; all; slice (i 1) (i 4) ])
       { arr = "A"; sel = [ At (Var "i"); All; Slice (Int 1, Int 4, Int 1) ] });
  match loop "i" (i 1) (i 4) [] with
  | For fl ->
      Alcotest.(check string) "loop var" "i" fl.var;
      Alcotest.(check bool) "step defaults to 1" true (fl.step = Int 1)
  | _ -> Alcotest.fail "loop should build For"

let test_subst_expr () =
  let e = (iv +: i 1) *: elem "A" [ iv; var "j" ] in
  Alcotest.check expr_t "substitute i"
    ((mypid +: i 1) *: elem "A" [ mypid; var "j" ])
    (subst_expr "i" Mypid e);
  (* no capture of other vars *)
  Alcotest.check expr_t "j untouched" e (subst_expr "k" (Int 0) e)

let test_subst_shadowing () =
  (* substituting i into a loop that rebinds i leaves the body alone *)
  let inner = loop "i" (i 1) (iv +: i 1) [ setv "x" iv ] in
  match subst_stmt "i" (Int 9) inner with
  | For fl ->
      Alcotest.check expr_t "bound substituted in header" (Int 9 +: i 1) fl.hi;
      Alcotest.(check bool) "body untouched" true
        (fl.body = [ setv "x" iv ])
  | _ -> Alcotest.fail "expected For"

let test_subst_section_and_transfers () =
  let s = sec "A" [ all; at iv; slice iv (iv +: i 3) ] in
  let s' = subst_section "i" Mypid s in
  Alcotest.(check bool) "section subst" true
    (equal_section s'
       (sec "A" [ all; at mypid; slice mypid (mypid +: i 3) ]));
  match subst_stmt "i" Mypid (send_owner_value s) with
  | Send_owner_value s2 -> Alcotest.(check bool) "stmt subst" true (equal_section s2 s')
  | _ -> Alcotest.fail "expected send"

(* An expression's [scalar_reads] are its free variables. *)
let test_effects_free_vars () =
  let reads e = (expr_effects e).scalar_reads in
  Alcotest.(check (list string)) "collects and sorts"
    [ "i"; "j" ]
    (reads (elem "A" [ iv ] +: (var "j" *: iv)));
  Alcotest.(check (list string)) "mypid is not a var" []
    (reads (mypid +: nprocs));
  Alcotest.(check (list string)) "section exprs" [ "k" ]
    (reads (iown (sec "B" [ at (var "k"); all ])))

let test_effects_arrays () =
  let stmts =
    [
      set "A" [ iv ] (elem "B" [ iv ] +: elem "C" [ i 1 ]);
      iown (sec "D" [ all ]) @: [ send (sec "D" [ all ]) ];
    ]
  in
  Alcotest.(check (list string)) "all arrays"
    [ "A"; "B"; "C"; "D" ]
    (arrays (effects stmts));
  Alcotest.(check (list string)) "arrays in subscripts" [ "A"; "B" ]
    (arrays (expr_effects (elem "A" [ elem "B" [ iv ] ])))

(* The three facts that are not accesses: await, accessible and
   transfers, each found however deep it sits. *)
let test_effects_facts () =
  let e = expr_effects and facts (f : effects) =
    [ f.awaits; f.tests_accessible; f.transfers ]
  in
  let check name want f = Alcotest.(check (list bool)) name want (facts f) in
  check "iown is none of them" [ false; false; false ]
    (e (iown (sec "A" [ all ])));
  check "await" [ true; false; false ]
    (e (enot (await (sec "A" [ at iv ]))));
  check "accessible" [ false; true; false ]
    (e (iown (sec "A" [ all ]) &&: accessible (sec "B" [ all ])));
  check "a nested send" [ false; false; true ]
    (effects
       [
         loop "i" (i 1) (i 2)
           [ iown (sec "A" [ at iv ]) @: [ send (sec "A" [ at iv ]) ] ];
       ]);
  check "a guard's await" [ true; false; false ]
    (effects [ await (sec "A" [ all ]) @: [ setv "x" (i 1) ] ]);
  check "a kernel is no transfer" [ false; false; false ]
    (effects [ apply "fft1D" [ sec "A" [ at iv; all ] ] ])

let test_map_stmts_bottom_up () =
  (* rewrite drops every send; must reach nested blocks *)
  let prog =
    [
      loop "i" (i 1) (i 2)
        [ iown (sec "A" [ at iv ]) @: [ send (sec "A" [ at iv ]) ] ];
      send (sec "B" [ all ]);
    ]
  in
  let no_sends =
    map_stmts
      (List.filter (function Send_value _ -> false | _ -> true))
      prog
  in
  let rec has_send = function
    | [] -> false
    | Send_value _ :: _ -> true
    | Guard (_, b) :: r -> has_send b || has_send r
    | For { body; _ } :: r -> has_send body || has_send r
    | If (_, a, b) :: r -> has_send a || has_send b || has_send r
    | _ :: r -> has_send r
  in
  Alcotest.(check bool) "no sends anywhere" false (has_send no_sends)

let test_size () =
  Alcotest.(check int) "counts nested" 4
    (size
       [
         loop "i" (i 1) (i 2)
           [ iown (sec "A" [ at iv ]) @: [ setv "x" (i 1) ] ];
         setv "y" (i 2);
       ])

let test_decl_of () =
  let p =
    program ~name:"t"
      ~decls:
        [
          decl ~name:"A" ~shape:[ 4 ] ~dist:[ Xdp_dist.Dist.Block ]
            ~grid:(Xdp_dist.Grid.linear 2) ();
        ]
      []
  in
  Alcotest.(check string) "found" "A" (decl_of p "A").arr_name;
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (decl_of p "Z");
       false
     with Invalid_argument _ -> true)

let test_default_seg_shape () =
  let d =
    decl ~name:"A" ~shape:[ 8; 3 ]
      ~dist:[ Xdp_dist.Dist.Block; Xdp_dist.Dist.Star ]
      ~grid:(Xdp_dist.Grid.linear 4) ()
  in
  (* whole local partition: 2 x 3 *)
  Alcotest.(check (list int)) "default seg" [ 2; 3 ] d.seg_shape

let () =
  Alcotest.run "ir"
    [
      ( "unit",
        [
          Alcotest.test_case "edsl shapes" `Quick test_edsl_builds_expected_shapes;
          Alcotest.test_case "subst expr" `Quick test_subst_expr;
          Alcotest.test_case "subst shadowing" `Quick test_subst_shadowing;
          Alcotest.test_case "subst sections" `Quick
            test_subst_section_and_transfers;
          Alcotest.test_case "effects free vars" `Quick test_effects_free_vars;
          Alcotest.test_case "effects arrays" `Quick test_effects_arrays;
          Alcotest.test_case "effects facts" `Quick test_effects_facts;
          Alcotest.test_case "map_stmts" `Quick test_map_stmts_bottom_up;
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "decl_of" `Quick test_decl_of;
          Alcotest.test_case "default seg shape" `Quick test_default_seg_shape;
        ] );
    ]
