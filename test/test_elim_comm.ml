(* Local-communication elimination tests. *)

open Xdp.Ir
open Xdp.Build
module Exec = Xdp_runtime.Exec

let grid n = Xdp_dist.Grid.linear n

let vec ~dist_b n nprocs =
  let decls =
    [
      decl ~name:"A" ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Block ]
        ~grid:(grid nprocs) ();
      decl ~name:"B" ~shape:[ n ] ~dist:[ dist_b ] ~grid:(grid nprocs) ();
    ]
  in
  let iv = var "i" in
  program ~name:"p" ~decls
    [ loop "i" (i 1) (i n) [ set "A" [ iv ] (elem "A" [ iv ] +: elem "B" [ iv ]) ] ]

let count_stmts pred p =
  let n = ref 0 in
  let rec go = function
    | [] -> ()
    | s :: rest ->
        if pred s then incr n;
        (match s with
        | Guard (_, b) -> go b
        | For { body; _ } -> go body
        | If (_, a, b) ->
            go a;
            go b
        | _ -> ());
        go rest
  in
  go p.body;
  !n

let is_send = function Send_value _ -> true | _ -> false
let is_recv = function Recv_value _ -> true | _ -> false

let test_aligned_eliminated () =
  let p =
    Xdp.Elim_comm.run
      (Xdp.Lower.run ~direct:false ~nprocs:4 (vec ~dist_b:Xdp_dist.Dist.Block 8 4))
  in
  Alcotest.(check int) "no sends" 0 (count_stmts is_send p);
  Alcotest.(check int) "no recvs" 0 (count_stmts is_recv p);
  Alcotest.(check int) "temp decls dropped" 2 (List.length p.decls);
  (* direct reference restored *)
  Alcotest.(check bool) "reads B directly" true
    (List.mem "B" (arrays (effects p.body)))

let test_misaligned_kept () =
  let p =
    Xdp.Elim_comm.run
      (Xdp.Lower.run ~direct:false ~nprocs:4 (vec ~dist_b:Xdp_dist.Dist.Cyclic 8 4))
  in
  Alcotest.(check int) "send kept" 1 (count_stmts is_send p);
  Alcotest.(check int) "recv kept" 1 (count_stmts is_recv p)

let test_shifted_subscript_kept () =
  (* A[i] = B[i+1]: subscripts differ, so even aligned layouts keep
     the transfer *)
  let decls =
    [
      decl ~name:"A" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid 2) ();
      decl ~name:"B" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid 2) ();
    ]
  in
  let iv = var "i" in
  let p0 =
    program ~name:"p" ~decls
      [ loop "i" (i 1) (i 7) [ set "A" [ iv ] (elem "B" [ iv +: i 1 ]) ] ]
  in
  let p = Xdp.Elim_comm.run (Xdp.Lower.run ~nprocs:2 p0) in
  Alcotest.(check int) "send kept" 1 (count_stmts is_send p)

let test_mixed_refs_partial_elimination () =
  (* A[i] = B[i] + B[i+1]: the aligned B[i] goes, the shifted stays *)
  let decls =
    [
      decl ~name:"A" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid 2) ();
      decl ~name:"B" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid 2) ();
    ]
  in
  let iv = var "i" in
  let p0 =
    program ~name:"p" ~decls
      [
        loop "i" (i 1) (i 7)
          [ set "A" [ iv ] (elem "B" [ iv ] +: elem "B" [ iv +: i 1 ]) ];
      ]
  in
  let lowered = Xdp.Lower.run ~nprocs:2 p0 in
  Alcotest.(check int) "two sends before" 2 (count_stmts is_send lowered);
  let p = Xdp.Elim_comm.run lowered in
  Alcotest.(check int) "one send after" 1 (count_stmts is_send p);
  Alcotest.(check int) "one recv after" 1 (count_stmts is_recv p)

let prop_elim_preserves_semantics =
  QCheck.Test.make ~name:"elim-comm preserves results" ~count:30
    QCheck.(
      pair (int_range 1 4)
        (oneofl [ Xdp_dist.Dist.Block; Xdp_dist.Dist.Cyclic ]))
    (fun (nprocs, dist_b) ->
      let n = 4 * nprocs in
      let seqp = vec ~dist_b n nprocs in
      let init name idx =
        match (name, idx) with
        | "A", [ i ] -> float_of_int i
        | "B", [ i ] -> float_of_int (1000 + i)
        | _ -> 0.0
      in
      let expected = Xdp_runtime.Seq.array (Xdp_runtime.Seq.run ~init seqp) "A" in
      let opt = Xdp.Elim_comm.run (Xdp.Lower.run ~nprocs seqp) in
      let r = Exec.run ~init ~nprocs opt in
      Xdp_util.Tensor.equal (Exec.array r "A") expected)

let () =
  Alcotest.run "elim_comm"
    [
      ( "unit",
        [
          Alcotest.test_case "aligned eliminated" `Quick
            test_aligned_eliminated;
          Alcotest.test_case "misaligned kept" `Quick test_misaligned_kept;
          Alcotest.test_case "shifted kept" `Quick test_shifted_subscript_kept;
          Alcotest.test_case "partial elimination" `Quick
            test_mixed_refs_partial_elimination;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_elim_preserves_semantics ] );
    ]
