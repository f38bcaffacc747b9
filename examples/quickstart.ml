(* Quickstart: the paper's §2.2 example, end to end.

   We write the sequential loop

       do i = 1, n   A[i] = A[i] + B[i]

   with A and B BLOCK-distributed over four processors, lower it to
   IL+XDP with the owner-computes rule, run the compiler's
   optimization passes one at a time, and execute every stage on the
   simulated distributed-memory machine, verifying each against the
   sequential reference.

   Run with:  dune exec examples/quickstart.exe *)

open Xdp.Build

let n = 16
let nprocs = 4

(* 1. Declare the arrays: BLOCK over a linear 4-processor grid. *)
let grid = Xdp_dist.Grid.linear nprocs

let decls =
  [
    decl ~name:"A" ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Block ] ~grid ();
    decl ~name:"B" ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Block ] ~grid ();
  ]

(* 2. The sequential program, written with the eDSL. *)
let iv = var "i"

let sequential =
  program ~name:"quickstart" ~decls
    [ loop "i" (i 1) (i n) [ set "A" [ iv ] (elem "A" [ iv ] +: elem "B" [ iv ]) ] ]

(* Deterministic initial data. *)
let init name idx =
  match (name, idx) with
  | "A", [ i ] -> float_of_int i
  | "B", [ i ] -> 1000.0 +. float_of_int i
  | _ -> 0.0

let () =
  (* 3. Sequential reference semantics. *)
  let reference =
    Xdp_runtime.Seq.array (Xdp_runtime.Seq.run ~init sequential) "A"
  in

  (* 4. Owner-computes lowering (§2.2's first listing: one guarded
     send and one guarded receive+await per iteration). *)
  let naive = Xdp.Lower.run ~direct:false ~nprocs sequential in
  print_endline "--- after owner-computes lowering ---";
  print_string (Xdp.Pp.program_to_string naive);

  (* 5. The §2.2 optimizations, one pass at a time. *)
  let pass name f p =
    let p = f p in
    Printf.printf "--- after pass %s ---\n%s" name
      (Xdp.Pp.program_to_string p);
    p
  in
  let optimized =
    naive
    |> pass "elim-comm" Xdp.Elim_comm.run
    |> pass "localize" Xdp.Localize.run
    |> pass "simplify" Xdp.Simplify.program
  in

  (* 6. Execute both on the simulated machine and verify. *)
  List.iter
    (fun (label, prog) ->
      let r = Xdp_runtime.Exec.run ~init ~nprocs prog in
      let ok =
        Xdp_util.Tensor.equal (Xdp_runtime.Exec.array r "A") reference
      in
      Printf.printf
        "%-10s makespan=%10.1f cycles  messages=%3d  guard evals=%4d  %s\n"
        label r.stats.makespan r.stats.messages r.stats.guard_evals
        (if ok then "verified" else "WRONG RESULT");
      if not ok then exit 1)
    [ ("naive", naive); ("optimized", optimized) ];
  print_endline
    "\nThe optimized program needs no messages and no compute rules:\n\
     exactly the paper's conclusion for the aligned case."
