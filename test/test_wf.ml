(* Well-formedness checker tests. *)

open Xdp.Build

let grid = Xdp_dist.Grid.linear 2

let decls =
  [
    decl ~name:"A" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid ();
    decl ~name:"M" ~shape:[ 4; 4 ]
      ~dist:[ Xdp_dist.Dist.Star; Xdp_dist.Dist.Block ] ~grid ();
  ]

let prog body = program ~name:"wf-test" ~decls body
let errors body = Xdp.Wf.check (prog body)
let iv = var "i"

let test_clean_program () =
  Alcotest.(check int) "no errors" 0
    (List.length
       (errors
          [
            loop "i" (i 1) (i 8)
              [
                iown (sec "A" [ at iv ]) @: [ set "A" [ iv ] (elem "A" [ iv ]) ];
              ];
            await (sec "A" [ all ]) @: [ setv "x" (i 1) ];
          ]))

let test_undeclared_array () =
  let errs = errors [ set "Z" [ i 1 ] (i 0 +: i 0) ] in
  Alcotest.(check bool) "caught" true
    (List.exists (fun (e : Xdp.Wf.error) -> e.what = "undeclared array Z") errs)

let test_rank_mismatch () =
  let errs = errors [ set "A" [ i 1; i 2 ] (f 0.0) ] in
  Alcotest.(check bool) "lhs rank" true (List.length errs > 0);
  let errs2 = errors [ setv "x" (elem "M" [ i 1 ]) ] in
  Alcotest.(check bool) "elem rank" true (List.length errs2 > 0);
  let errs3 = errors [ send (sec "M" [ all ]) ] in
  Alcotest.(check bool) "section rank" true (List.length errs3 > 0)

let test_await_outside_guard () =
  let errs = errors [ setv "x" (await (sec "A" [ all ])) ] in
  Alcotest.(check bool) "await misplaced" true
    (List.exists
       (fun (e : Xdp.Wf.error) ->
         String.length e.what > 5 && String.sub e.what 0 5 = "await")
       errs);
  (* but await in guard position is fine *)
  Alcotest.(check int) "in guard ok" 0
    (List.length (errors [ await (sec "A" [ all ]) @: [] ]))

let test_bad_loop_step () =
  let errs = errors [ loop_step "i" (i 1) (i 8) (i 0) [] ] in
  Alcotest.(check bool) "zero step" true (List.length errs > 0);
  Alcotest.(check int) "symbolic step allowed" 0
    (List.length (errors [ loop_step "i" (i 1) (i 8) nprocs [] ]))

let test_empty_directed_send () =
  let errs = errors [ send_to (sec "A" [ all ]) [] ] in
  Alcotest.(check bool) "empty set" true (List.length errs > 0)

let test_bad_seg_shape () =
  let bad =
    program ~name:"bad"
      ~decls:
        [
          {
            arr_name = "A";
            layout =
              Xdp_dist.Layout.make ~shape:[ 8 ]
                ~dist:[ Xdp_dist.Dist.Block ] ~grid;
            seg_shape = [ 2; 2 ];
            universal = false;
          };
        ]
      []
  in
  Alcotest.(check bool) "seg rank" true (List.length (Xdp.Wf.check bad) > 0)

let test_duplicate_decl () =
  let dup =
    program ~name:"dup"
      ~decls:
        [
          decl ~name:"A" ~shape:[ 4 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid ();
          decl ~name:"A" ~shape:[ 4 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid ();
        ]
      []
  in
  Alcotest.(check bool) "dup caught" true (List.length (Xdp.Wf.check dup) > 0)

let test_mylb_dim_range () =
  let errs = errors [ setv "x" (mylb (sec "A" [ all ]) 2) ] in
  Alcotest.(check bool) "dim out of range" true (List.length errs > 0)

let test_check_exn () =
  Alcotest.(check bool) "raises with message" true
    (try
       Xdp.Wf.check_exn (prog [ set "Z" [ i 1 ] (f 0.0) ]);
       false
     with Invalid_argument msg ->
       String.length msg > 0)

(* The exact text of a failed check: declaration errors are located at
   the array, statement errors at the innermost statement (a guard
   body's statement, not the guard), rendered and cut to 60 characters
   plus "...". *)
let test_check_exn_text () =
  let bad =
    program ~name:"wf-text"
      ~decls:
        [
          decl ~name:"A" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid ();
          decl ~name:"A" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid ();
          decl ~name:"M" ~shape:[ 4; 4 ]
            ~dist:[ Xdp_dist.Dist.Star; Xdp_dist.Dist.Block ] ~grid ();
        ]
      [
        loop "i" (i 1) (i 8)
          [
            iown (sec "A" [ at iv ]) @: [ set "Z" [ iv ] (elem "A" [ iv ]) ];
            iown (sec "Q" [ at iv ]) @: [ setv "x" (i 1) ];
          ];
        set "M" [ i 1 ]
          (elem "A" [ i 1 ] +: elem "A" [ i 2 ] +: elem "A" [ i 3 ]
         +: elem "A" [ i 4 ] +: elem "A" [ i 5 ] +: elem "A" [ i 6 ]
         +: elem "A" [ i 7 ]);
      ]
  in
  let msg =
    try
      Xdp.Wf.check_exn bad;
      "no error"
    with Invalid_argument msg -> msg
  in
  Alcotest.(check string) "message"
    "Wf.check failed for wf-text:\n\
     A: duplicate array declaration\n\
     Z[i] = A[i]: undeclared array Z\n\
     iown(Q[i]) : { x = 1 }: undeclared array Q\n\
     M[1] = ((((((A[1] + A[2]) + A[3]) + A[4]) + A[5]) + A[6]) + ...: M \
     has rank 2 but 1 subscripts given"
    msg

let () =
  Alcotest.run "wf"
    [
      ( "unit",
        [
          Alcotest.test_case "clean" `Quick test_clean_program;
          Alcotest.test_case "undeclared" `Quick test_undeclared_array;
          Alcotest.test_case "rank mismatch" `Quick test_rank_mismatch;
          Alcotest.test_case "await placement" `Quick test_await_outside_guard;
          Alcotest.test_case "loop step" `Quick test_bad_loop_step;
          Alcotest.test_case "empty directed send" `Quick
            test_empty_directed_send;
          Alcotest.test_case "seg shape" `Quick test_bad_seg_shape;
          Alcotest.test_case "duplicate decl" `Quick test_duplicate_decl;
          Alcotest.test_case "mylb dim" `Quick test_mylb_dim_range;
          Alcotest.test_case "check_exn" `Quick test_check_exn;
          Alcotest.test_case "check_exn text" `Quick test_check_exn_text;
        ] );
    ]
