(* SPMD executor mechanics: scheduling, statistics, gather, misuse
   diagnostics, determinism, cost-model sensitivity. *)

open Xdp.Build
module Exec = Xdp_runtime.Exec

let grid n = Xdp_dist.Grid.linear n

let decls n =
  [
    decl ~name:"A" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid n)
      ~seg_shape:[ 8 / n ] ();
    decl ~name:"T" ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid n)
      ~seg_shape:[ 1 ] ();
  ]

let prog ?(n = 2) body = program ~name:"exec-test" ~decls:(decls n) body
let iv = var "i"

let test_spmd_guarded_writes () =
  (* every proc writes only its own elements *)
  let p =
    prog
      [
        loop "i" (i 1) (i 8)
          [ iown (sec "A" [ at iv ]) @: [ set "A" [ iv ] (iv *: i 10) ] ];
      ]
  in
  let r = Exec.run ~nprocs:2 p in
  let a = Exec.array r "A" in
  for k = 1 to 8 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "A[%d]" k)
      (float_of_int (10 * k))
      (Xdp_util.Tensor.get a [ k ])
  done;
  Alcotest.(check int) "guard evals: 8 iters x 2 procs" 16
    r.stats.guard_evals;
  Alcotest.(check int) "guard hits: 8" 8 r.stats.guard_hits

let test_universal_scalars_replicated () =
  (* each proc has its own copy of a universal scalar *)
  let p = prog [ setv "x" (mypid *: i 100); set "T" [ mypid ] (var "x") ] in
  let r = Exec.run ~nprocs:2 p in
  let a = Exec.array r "T" in
  Alcotest.(check (float 0.0)) "P1 copy" 100.0 (Xdp_util.Tensor.get a [ 1 ]);
  Alcotest.(check (float 0.0)) "P2 copy" 200.0 (Xdp_util.Tensor.get a [ 2 ])

let test_transfer_roundtrip () =
  (* P1 sends A[1], P2 receives it into T[2] *)
  let p =
    prog
      [
        iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ];
        (mypid =: i 2)
        @: [
             recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 1) ]);
             await (sec "T" [ at mypid ])
             @: [ set "A" [ i 5 ] (elem "T" [ mypid ] +: f 1.0) ];
           ];
      ]
  in
  let r = Exec.run ~init:(fun _ idx -> if idx = [ 1 ] then 41.0 else 0.0) ~nprocs:2 p in
  Alcotest.(check (float 0.0)) "value moved" 42.0
    (Xdp_util.Tensor.get (Exec.array r "A") [ 5 ]);
  Alcotest.(check int) "one message" 1 r.stats.messages;
  Alcotest.(check bool) "nonzero makespan" true (r.stats.makespan > 0.0)

(* The two engines, which must stay observably identical, selected
   explicitly so the checks below hold whatever XDP_ENGINE says. *)
let configs = [ ("fused", `Compiled); ("interp", `Interp) ]

(* Every runtime misuse diagnostic, with its exact text, under both
   engines: the compiled engine must abort at the same statement, on
   the same processor, at the same clock. *)
let test_misuse_diagnostics () =
  let p2 body = [ (mypid =: i 2) @: body ] in
  let a1 = sec "A" [ at (i 1) ] in
  let cases =
    [
      ( "write unowned",
        [ set "A" [ i 1 ] (f 0.0) ],
        "P2 at t=0.0 in exec-test: write to unowned element A[1]" );
      ( "read unowned outside rule",
        p2 [ setv "x" (elem "A" [ i 1 ]) ],
        "P2 at t=6.5 in exec-test: read of unowned A[1] outside a compute \
         rule" );
      ( "send unowned",
        p2 [ send a1 ],
        "P2 at t=5.5 in exec-test: value send of unowned section A[1]" );
      ( "recv into unowned",
        p2 [ recv ~into:a1 ~from:(sec "A" [ at (i 2) ]) ],
        "P2 at t=5.5 in exec-test: receive into unowned section A[1]" );
      ( "ownership recv of owned",
        [ (mypid =: i 1) @: [ recv_owner a1 ] ],
        "P1 at t=5.5 in exec-test: ownership receive of section A[1] some \
         element of which is already owned" );
      ( "unknown kernel",
        [ apply "nope" [ sec "A" [ all ] ] ],
        "P1 at t=0.0 in exec-test: unknown kernel nope" );
      ( "ownership send of unowned",
        p2 [ send_owner a1 ],
        "P2 at t=5.5 in exec-test: ownership send of unowned section A[1]" );
      ( "receive shape mismatch",
        p2
          [
            recv ~into:(sec "A" [ at (i 5) ])
              ~from:(sec "A" [ slice (i 1) (i 2) ]);
          ],
        "P2 at t=5.5 in exec-test: receive shape mismatch: A[5] <- A[1:2]" );
      ( "fft1D on unowned section",
        p2 [ apply "fft1D" [ sec "A" [ slice (i 1) (i 4) ] ] ],
        "P2 at t=5.5 in exec-test: kernel fft1D applied to unowned section \
         A[1:4]" );
      ( "unowned read in if-condition",
        p2 [ if_ (elem "A" [ i 1 ] =: f 0.0) [ setv "x" (i 1) ] [] ],
        "P2 at t=7.0 in exec-test: read of unowned A[1] in if-condition" );
      ( "send directed to processor 7 of 2",
        [ iown a1 @: [ send_to a1 [ i 7 ] ] ],
        "P1 at t=7.0 in exec-test: send directed to invalid processor 7" );
      ( "zero loop step from a variable",
        [ setv "s" (i 0); loop_step "i" (i 1) (i 4) (var "s") [ setv "x" iv ] ],
        "P1 at t=1.0 in exec-test: non-positive loop step" );
    ]
  in
  List.iter
    (fun (name, body, want) ->
      List.iter
        (fun (ename, engine) ->
          let got =
            match Exec.run ~engine ~nprocs:2 (prog body) with
            | _ -> "no diagnostic"
            | exception Exec.Xdp_misuse m -> m
          in
          Alcotest.(check string) (name ^ " (" ^ ename ^ ")") want got)
        configs)
    cases

let test_deadlock_detection () =
  (* a receive that nobody sends *)
  let p =
    prog
      [
        (mypid =: i 1)
        @: [
             recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 8) ]);
             await (sec "T" [ at mypid ]) @: [ setv "x" (i 1) ];
           ];
      ]
  in
  Alcotest.(check bool) "deadlock raised" true
    (try
       ignore (Exec.run ~nprocs:2 p);
       false
     with Exec.Deadlock msg ->
       (* message names the waiting processor *)
       String.length msg > 0)

let test_unmatched_reported () =
  (* a send nobody receives is reported in stats, not an error *)
  let p = prog [ iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ] ] in
  let r = Exec.run ~nprocs:2 p in
  Alcotest.(check int) "unmatched send" 1 r.stats.unmatched_sends

let test_determinism () =
  let build () =
    Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Pipelined ()
  in
  let r1 = Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 (build ()) in
  let r2 = Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 (build ()) in
  Alcotest.(check (float 0.0)) "same makespan" r1.stats.makespan
    r2.stats.makespan;
  Alcotest.(check int) "same messages" r1.stats.messages r2.stats.messages;
  Alcotest.(check bool) "same data" true
    (Xdp_util.Tensor.equal (Exec.array r1 "A") (Exec.array r2 "A"))

let test_cost_model_sensitivity () =
  let p = Xdp_apps.Vecadd.build ~n:8 ~nprocs:2 ~dist_b:Xdp_dist.Dist.Cyclic
      ~stage:Xdp_apps.Vecadd.Naive () in
  let mp = Exec.run ~cost:Xdp_sim.Costmodel.message_passing
      ~init:Xdp_apps.Vecadd.init ~nprocs:2 p in
  let sa = Exec.run ~cost:Xdp_sim.Costmodel.shared_address
      ~init:Xdp_apps.Vecadd.init ~nprocs:2 p in
  let ideal = Exec.run ~cost:Xdp_sim.Costmodel.idealized
      ~init:Xdp_apps.Vecadd.init ~nprocs:2 p in
  Alcotest.(check bool) "mp slower than shared-address" true
    (mp.stats.makespan > sa.stats.makespan);
  Alcotest.(check bool) "shared-address slower than ideal" true
    (sa.stats.makespan > ideal.stats.makespan);
  Alcotest.(check int) "same messages everywhere" mp.stats.messages
    sa.stats.messages

let test_gather_and_ownership_defects () =
  let p = prog [] in
  let r = Exec.run ~nprocs:2 p in
  let unowned, multi = Exec.ownership_defects r p in
  Alcotest.(check int) "none unowned" 0 unowned;
  Alcotest.(check int) "none multiply owned" 0 multi

let test_layout_procs_mismatch () =
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Exec.run ~nprocs:4 (prog ~n:2 []));
       false
     with Invalid_argument _ -> true)

let run_config ?max_steps ?(init = fun _ _ -> 0.0) ~nprocs engine p =
  Exec.run ~engine ?max_steps ~init ~trace:true ~nprocs p

let trace_digest (r : Exec.result) =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Xdp_sim.Trace.pp r.trace))

(* [mypid = 3] never holds on two processors; the send body keeps each
   guard unfusable, so fused runs scan these. *)
let pad n = List.init n (fun _ -> (mypid =: i 3) @: [ send (sec "A" [ at (i 1) ]) ])

let test_step_budget () =
  let p = prog [ loop "i" (i 1) (i 100000) [ setv "x" iv ] ] in
  Alcotest.(check bool) "budget enforced" true
    (try
       ignore (Exec.run ~max_steps:100 ~nprocs:2 p);
       false
     with Exec.Xdp_misuse _ -> true);
  (* Parity: P1's first turn scans all 100 guards when fused, so a
     budget of 50 runs out inside that scan; the abort must be the
     same everywhere, and a run that fits its budget exactly must
     report the same statement count. *)
  let outcome ~nprocs ?init engine max_steps p =
    match run_config ~max_steps ?init ~nprocs engine p with
    | r -> Ok r.stats.statements
    | exception Exec.Xdp_misuse m -> Error m
  in
  let expect name want got =
    Alcotest.(check (result int string)) name want got
  in
  (* A fused run counts each statement as it goes, so it stops exactly
     where the interpreter stops: it neither runs on past the budget
     nor reports a statement the budget never let it reach. *)
  let count_loop n = loop "i" (i 1) (i n) [ setv "x" (iv +: i 1) ] in
  let batched_loop = loop "i" (i 1) (i 100) [ set "T" [ mypid ] (f 1.0) ] in
  let unowned_store = set "A" [ i 5 ] (f 0.0) in
  let div0 = setv "y" (i 1 /: i 0) in
  List.iter
    (fun (case, body, budget) ->
      List.iter
        (fun (name, engine) ->
          expect
            (Printf.sprintf "%s: %s" name case)
            (Error (Printf.sprintf "step budget exceeded (%d)" budget))
            (outcome ~nprocs:2 engine budget (prog body)))
        configs)
    [
      ("60M-statement loop", [ count_loop 30_000_000 ], 100);
      ("loop, then an unowned store", [ count_loop 100; unowned_store ], 50);
      ("loop, then a division by zero", [ count_loop 100; div0 ], 50);
      ("batched loop, then an unowned store", [ batched_loop; unowned_store ], 50);
    ];
  let p = prog (pad 100) in
  List.iter
    (fun (name, engine) ->
      expect (name ^ ": budget runs out mid-scan")
        (Error "step budget exceeded (50)")
        (outcome ~nprocs:2 engine 50 p);
      expect (name ^ ": one step short") (Error "step budget exceeded (199)")
        (outcome ~nprocs:2 engine 199 p);
      expect (name ^ ": exactly at the budget") (Ok 200)
        (outcome ~nprocs:2 engine 200 p))
    configs;
  let redist = Xdp_apps.Redistflow.build ~n:8 ~nprocs:4 ~m:1 () in
  let init = Xdp_apps.Redistflow.init in
  let steps =
    match outcome ~nprocs:4 ~init `Interp 20_000_000 redist with
    | Ok n -> n
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun (name, engine) ->
      expect (name ^ ": redist fits its budget") (Ok steps)
        (outcome ~nprocs:4 ~init engine steps redist);
      expect (name ^ ": redist one step short")
        (Error (Printf.sprintf "step budget exceeded (%d)" (steps - 1)))
        (outcome ~nprocs:4 ~init engine (steps - 1) redist))
    configs

(* The races below: P1 sends A[1] = 41.0 to P2 on both engines. *)
let race_runs p =
  let init _ idx = if idx = [ 1 ] then 41.0 else 0.0 in
  List.map
    (fun (name, engine) -> (name, run_config ~init ~nprocs:2 engine p))
    configs

(* Every run agrees with the interpreter's on A, T, the stats and the
   full trace; returns the interpreter's. *)
let agree case runs =
  let ref_ = List.assoc "interp" runs in
  List.iter
    (fun (name, (r : Exec.result)) ->
      let what x = Printf.sprintf "%s, %s: %s" case name x in
      List.iter
        (fun a ->
          Alcotest.(check bool) (what a) true
            (Xdp_util.Tensor.equal ~eps:0.0 (Exec.array r a)
               (Exec.array ref_ a)))
        [ "A"; "T" ];
      Alcotest.(check bool) (what "stats") true (r.stats = ref_.stats);
      Alcotest.(check string) (what "trace") (trace_digest ref_)
        (trace_digest r))
    runs;
  ref_

(* The case the in-flight rule exists for.  P2 posts a value receive,
   then walks 600 pure guards (scanned in one turn even with the
   receive pending) whose cost carries its clock past the delivery's
   arrival, then meets [accessible(T[2])], which reads the symbol
   table.  In the reference the delivery has landed by then, so the
   guard holds; a scan that ran on past the pending receive would
   evaluate it before the delivery and skip the body. *)
let test_delivery_mid_scan () =
  let t2 = sec "T" [ at mypid ] in
  let p =
    prog
      ([
         iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ];
         (mypid =: i 2) @: [ recv ~into:t2 ~from:(sec "A" [ at (i 1) ]) ];
       ]
      @ pad 600
      @ [
          (accessible t2 &&: (mypid =: i 2))
          @: [
               set "A" [ i 5 ] (elem "T" [ mypid ] +: f 1.0);
               send (sec "A" [ at (i 5) ]);
             ];
        ])
  in
  let runs = race_runs p in
  let ref_ = agree "mid-scan" runs in
  Alcotest.(check (float 0.0)) "the delivery landed before the guard" 42.0
    (Xdp_util.Tensor.get (Exec.array ref_ "A") [ 5 ]);
  Alcotest.(check bool) "fused run scanned" true
    ((List.assoc "fused" runs).fusion.fused_turns > 0)

(* Guard scans and fused runs share one licence: a guard may run ahead
   while no receive in flight targets an array its condition reads.
   P1 sends B[1]; P2 posts a value receive into A[5], then walks 600
   impure guards over B ([iown] queries and element reads, each false
   on P2) whose charges carry its clock past the delivery's arrival,
   then meets [accessible(A[5])].  The guards over B are scanned with
   the receive pending; the guard over A is not, so it sees the
   delivered value as in the reference.  The second variant ends in a
   misuse, whose diagnostic (clock included) must match too. *)
let test_impure_scan_past_pending_receive () =
  let block name =
    decl ~name ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid 2)
      ~seg_shape:[ 4 ] ()
  in
  let decls = [ block "A"; block "B"; List.nth (decls 2) 1 ] in
  let a5 = sec "A" [ at (i 5) ] in
  let over_b k =
    let cond =
      if k mod 2 = 0 then iown (sec "B" [ at (i 5) ]) &&: (mypid =: i 3)
      else elem "B" [ i 6 ] =: f (-1.0)
    in
    cond @: [ send (sec "B" [ at (i 1) ]) ]
  in
  let race last =
    program ~name:"exec-test" ~decls
      ([
         iown (sec "B" [ at (i 1) ]) @: [ send (sec "B" [ at (i 1) ]) ];
         (mypid =: i 2) @: [ recv ~into:a5 ~from:(sec "B" [ at (i 1) ]) ];
       ]
      @ List.init 600 over_b
      @ [ (accessible a5 &&: (mypid =: i 2)) @: last ])
  in
  let init name idx =
    if name = "B" && idx = [ 1 ] then 41.0 else float_of_int (List.hd idx)
  in
  let runs p =
    List.map
      (fun (name, engine) -> (name, run_config ~init ~nprocs:2 engine p))
      configs
  in
  let ok =
    runs
      (race
         [ set "T" [ mypid ] (elem "A" [ i 5 ] +: f 1.0);
           send (sec "T" [ at mypid ]) ])
  in
  let ref_ = agree "impure scan" ok in
  List.iter
    (fun (name, (r : Exec.result)) ->
      Alcotest.(check bool) (name ^ ": B agrees") true
        (Xdp_util.Tensor.equal ~eps:0.0 (Exec.array r "B")
           (Exec.array ref_ "B")))
    ok;
  Alcotest.(check (float 0.0)) "the delivery landed before the guard" 42.0
    (Xdp_util.Tensor.get (Exec.array ref_ "T") [ 2 ]);
  Alcotest.(check bool) "both processors scanned the guards over B" true
    ((List.assoc "fused" ok).fusion.fused_statements >= 2 * 600);
  let outcome (_, engine) =
    match
      run_config ~init ~nprocs:2 engine
        (race [ set "A" [ i 1 ] (elem "A" [ i 5 ]) ])
    with
    | _ -> "no abort"
    | exception Exec.Xdp_misuse m -> m
  in
  Alcotest.(check string) "diagnostic" (outcome ("interp", `Interp))
    (outcome ("fused", `Compiled))

(* The same race for fused runs.  P2 posts a value receive into T[2],
   then runs a 2000-iteration loop whose cost carries its clock past
   the delivery's arrival.  A loop over A alone cannot observe the
   delivery, so it runs in one turn with the receive in flight; a loop
   reading T[2] must run a turn per statement, so that iterations after
   the arrival read the delivered 41.0, as in the reference. *)
let test_delivery_mid_fused_run () =
  let t2 = sec "T" [ at mypid ] and me = mypid *: i 4 and trips = 2000 in
  let race loop_body =
    prog
      [
        iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ];
        (mypid =: i 2) @: [ recv ~into:t2 ~from:(sec "A" [ at (i 1) ]) ];
        setv "x" (f 0.0);
        loop "j" (i 1) (i trips) [ loop_body ];
        set "A" [ me ] (elem "A" [ me ] +: var "x");
        (mypid =: i 2)
        @: [ await t2 @: [ set "A" [ i 5 ] (elem "T" [ mypid ]) ] ];
      ]
  in
  (* a loop over another array runs ahead in one turn *)
  let ahead = race_runs (race (set "A" [ me ] (elem "A" [ me ] +: f 1.0))) in
  let ref_ = agree "loop over A" ahead in
  Alcotest.(check (float 0.0)) "the delivery landed" 41.0
    (Xdp_util.Tensor.get (Exec.array ref_ "A") [ 5 ]);
  (* a loop is its header and [trips] iterations *)
  let fused_statements runs =
    (List.assoc "fused" runs).Exec.fusion.fused_statements
  in
  Alcotest.(check bool) "both processors' loops ran fused" true
    (fused_statements ahead >= 2 * (trips + 1));
  (* a loop over the receive's own array falls back *)
  let observed = race_runs (race (setv "x" (var "x" +: elem "T" [ mypid ]))) in
  let ref_ = agree "loop over T" observed in
  Alcotest.(check bool) "P2's loop ran a turn per statement" true
    (fused_statements observed < 2 * (trips + 1));
  let x = Xdp_util.Tensor.get (Exec.array ref_ "A") [ 8 ] in
  Alcotest.(check bool)
    (Printf.sprintf "the delivery landed mid-loop (x = %g)" x)
    true
    (x > 0.0 && x < float_of_int trips *. 41.0)

(* Turn-count tripwire: on the naive all-to-all almost every statement
   is a false owner-computes guard, and the fused engine must take
   them a run per turn rather than one per turn.  Scan turns report
   through the fusion counters; the count is deterministic, so the
   bound has no noise to absorb. *)
let test_guard_scan_tripwire () =
  let p = Xdp_apps.Redistflow.build ~n:64 ~nprocs:32 ~m:1 () in
  let r = run_config ~init:Xdp_apps.Redistflow.init ~nprocs:32 `Compiled p in
  let scanned = r.fusion.fused_statements and total = r.stats.statements in
  if float_of_int scanned < 0.8 *. float_of_int total then
    Alcotest.failf
      "only %d of %d statements ran in multi-statement turns (%.2f, bound 0.8)"
      scanned total
      (float_of_int scanned /. float_of_int total)

(* Turn-count tripwire for overlap: an optimized 1-D Jacobi sweeps its
   interior while the halo receives are in flight.  The sweep touches
   neither halo array, so it must still run fused; statement by
   statement, only about 71% of the statements would run in
   multi-statement turns. *)
let test_overlap_run_ahead_tripwire () =
  let nprocs = 4 in
  let seq =
    Xdp_apps.Jacobi.build ~n:1024 ~nprocs ~sweeps:4
      ~stage:Xdp_apps.Jacobi.Sequential ()
  in
  let p = (Xdp.Compile.optimize ~nprocs seq).compiled in
  let r = run_config ~nprocs `Compiled p in
  let fused = r.fusion.fused_statements and total = r.stats.statements in
  if float_of_int fused < 0.95 *. float_of_int total then
    Alcotest.failf
      "only %d of %d statements ran in multi-statement turns (%.2f, bound \
       0.95)"
      fused total
      (float_of_int fused /. float_of_int total)

(* [Symtab.descriptor_visits] counts table work only, which both
   engines do alike: per processor, the counts agree on every batch
   app and stage (redist and dlstack over their strategy and placement
   axes too).  Element-ownership checks, which the engines make
   differently, count nothing. *)
let test_visits_engine_independent () =
  let module W = Xdp_batch.Workload in
  let base = Xdp_batch.Manifest.default_spec in
  let specs =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun stage ->
            let s = { base with app; stage } in
            match app with
            | "fft3d" -> [ { s with n = 4 } ]
            | "farm" -> [ { s with n = 8 } ]
            | "redist" ->
                List.map
                  (fun redist -> { s with procs = 8; redist })
                  [ "naive"; "collectives" ]
            | "dlstack" ->
                List.map
                  (fun placement ->
                    { s with n = 32; dim = 8; layers = 3; placement })
                  [ "naive"; "hand"; "search" ]
            | _ -> [ s ])
          (W.stages_of app))
      W.known_apps
  in
  List.iter
    (fun spec ->
      let spec = Result.get_ok (W.check_spec spec) in
      let w = W.build spec in
      let visits engine =
        let r =
          Exec.run ~engine ~init:w.init ~nic:w.nic
            ~redist_stages:w.redist_stages ~nprocs:spec.procs w.prog
        in
        Array.to_list (Array.map Xdp_symtab.Symtab.descriptor_visits r.symtabs)
      in
      Alcotest.(check (list int))
        (Xdp_batch.Manifest.label_of_spec spec)
        (visits `Interp) (visits `Compiled))
    specs

let test_trace_events_recorded () =
  let p =
    prog
      [
        iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ];
        (mypid =: i 2)
        @: [ recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 1) ]) ];
      ]
  in
  let r = Exec.run ~trace:true ~nprocs:2 p in
  let events = Xdp_sim.Trace.events r.trace in
  Alcotest.(check bool) "has send/recv/delivery" true
    (List.exists (function Xdp_sim.Trace.Send_init _ -> true | _ -> false) events
    && List.exists (function Xdp_sim.Trace.Recv_init _ -> true | _ -> false) events
    && List.exists (function Xdp_sim.Trace.Delivered _ -> true | _ -> false) events)

(* Heap tripwire: the compiled engine's per-processor state must not
   grow with processors × program size.  On the naive all-to-all every
   processor executes every statement's guard, so per-site state that
   is allocated for every processor shows up here as major-heap words
   far above the interpreter's.  The counts are deterministic (same
   program, same allocation sequence), so a 2x bound has no noise to
   absorb. *)
let test_compiled_heap_tripwire () =
  let p = Xdp_apps.Redistflow.build ~n:64 ~nprocs:32 ~m:1 () in
  let major_words engine =
    let before = (Gc.quick_stat ()).Gc.major_words in
    ignore
      (Exec.run ~engine ~init:Xdp_apps.Redistflow.init ~nprocs:32 p
        : Exec.result);
    (Gc.quick_stat ()).Gc.major_words -. before
  in
  let interp = major_words `Interp in
  let compiled = major_words `Compiled in
  if compiled > 2.0 *. interp then
    Alcotest.failf
      "compiled engine allocated %.0f major words vs the interpreter's %.0f \
       (%.1fx, bound 2x)"
      compiled interp (compiled /. interp)

(* The one engine-name parser: exactly these names are accepted, each
   maps to its engine, and [engine_name] gives the canonical form. *)
let test_engine_names () =
  let accepted =
    [
      ("compiled", `Compiled);
      ("staged", `Compiled);
      ("interp", `Interp);
      ("interpreter", `Interp);
      ("reference", `Interp);
    ]
  in
  let parsed s = Result.map Exec.engine_name (Exec.engine_of_string s) in
  List.iter
    (fun (s, e) ->
      Alcotest.(check (result string string)) s (Ok (Exec.engine_name e))
        (parsed s))
    accepted;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (Result.is_error (Exec.engine_of_string s)))
    [ ""; "Compiled"; "fused"; "jit"; "interpreted"; "seq" ];
  Alcotest.(check (list string)) "canonical names" [ "compiled"; "interp" ]
    (List.map Exec.engine_name [ `Compiled; `Interp ])

(* A lone processor P1 over table [st], outside any [Exec.run]. *)
let tripwire_proc ~max_steps st =
  let module Rules = Xdp_runtime.Rules in
  let cost = Xdp_sim.Costmodel.message_passing in
  let tr = Xdp_sim.Trace.create ~enabled:false in
  let wire =
    Xdp_net.Transport.create ~config:Xdp_net.Transport.default_config
      ~plan:Xdp_net.Faultplan.none ~trace:tr
      (Xdp_sim.Board.create cost) ~cost
  in
  let fabric =
    match
      Xdp_nic.Fabric.create ~nprocs:1 ~cost ~trace:tr
        ~post:(Xdp_net.Transport.post_send wire) []
    with
    | Ok f -> f
    | Error e -> failwith e
  in
  let run =
    {
      Rules.prog_name = "tripwire";
      nprocs = 1;
      cost;
      tr;
      wire;
      fabric;
      arrays = Hashtbl.create 1;
      pending = Hashtbl.create 1;
      tokens = 0;
      ownership_transfers = 0;
      steps = 0;
      max_steps;
    }
  in
  {
    Rules.run;
    pid = 0;
    st;
    times = { clock = 0.0; busy = 0.0 };
    guard_evals = 0;
    guard_hits = 0;
    inflight_into = [||];
  }

let words f =
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  Gc.minor_words () -. w0

(* Allocation tripwire: a placement query that answers false and a
   clock charge are the per-statement work of a naive all-to-all's
   guard scan, and neither may allocate.  [Gc.minor_words] returns an
   unboxed float in native code, so reading it allocates nothing. *)
let test_zero_alloc_tripwire () =
  let module Symtab = Xdp_symtab.Symtab in
  let module Box = Xdp_util.Box in
  let module Rules = Xdp_runtime.Rules in
  let st = Symtab.create ~pid:0 () in
  (* P1 of 4 owns 1..64 as 64 one-element segments *)
  Symtab.declare st ~name:"A"
    ~layout:
      (Xdp_dist.Layout.make ~shape:[ 256 ] ~dist:[ Xdp_dist.Dist.Block ]
         ~grid:(grid 4))
    ~seg_shape:[ 1 ];
  Alcotest.(check int) "64 segments" 64 (Symtab.live_count st "A");
  let partly = Box.make [ Xdp_util.Triplet.range 60 70 ] in
  let elsewhere = Box.make [ Xdp_util.Triplet.range 100 110 ] in
  let iown box () = if Symtab.iown st "A" box then failwith "owned" in
  Alcotest.(check (float 0.0)) "iown, partly owned" 0.0 (words (iown partly));
  Alcotest.(check (float 0.0)) "iown, owned elsewhere" 0.0
    (words (iown elsewhere));
  let p = tripwire_proc ~max_steps:1 st in
  Alcotest.(check (float 0.0)) "Rules.charge" 0.0
    (words (fun () -> Rules.charge p 1.5));
  Alcotest.(check (float 0.0)) "clock advanced" 1500.0 p.times.clock;
  (* the guard's whole oracle: query plus descriptor charge *)
  Alcotest.(check (float 0.0)) "Rules.iown" 0.0
    (words (fun () -> if Rules.iown p "A" partly then failwith "owned"))

(* A range kernel allocates per loop entry, never per iteration: the
   stencil sweep over one 64-element segment allocates the same words
   for 8 iterations as for 62. *)
let test_range_kernel_alloc () =
  let module Symtab = Xdp_symtab.Symtab in
  let module Precompile = Xdp_runtime.Precompile in
  let d =
    decl ~name:"B" ~shape:[ 256 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid 4)
      ~seg_shape:[ 64 ] ()
  in
  let st = Symtab.create ~pid:0 () in
  Symtab.declare st ~name:"B" ~layout:d.Xdp.Ir.layout ~seg_shape:[ 64 ];
  let p = tripwire_proc ~max_steps:max_int st in
  let entry_words hi =
    let sweep =
      (f 0.25 *: elem "B" [ iv -: i 1 ])
      +: (f 0.5 *: elem "B" [ iv ])
      +: (f 0.25 *: elem "B" [ iv +: i 1 ])
    in
    let prog =
      program ~name:"tripwire" ~decls:[ d ]
        [ loop "i" (i 2) (i hi) [ set "B" [ iv ] sweep ] ]
    in
    let cp =
      Precompile.compile ~cost:p.run.cost ~kernels:Xdp.Kernels.default
        ~scalars:[] prog
    in
    let m = Precompile.machine cp p in
    match Precompile.body cp with
    | [| Precompile.U_fuse u |] ->
        u.fu_fast m;
        words (fun () -> u.fu_fast m)
    | _ -> failwith "expected one fused loop"
  in
  Alcotest.(check (float 0.0)) "8 vs 62 iterations" (entry_words 9)
    (entry_words 63)

(* A batched loop (a counted loop whose body is one element store) may
   only take its whole charge up front once it knows no iteration can
   abort; a misuse inside it must report the interpreter's clock. *)
let test_batched_loop_parity () =
  let ab =
    List.map
      (fun name ->
        decl ~name ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid 2)
          ~seg_shape:[ 4 ] ())
      [ "A"; "B" ]
  in
  let store off =
    loop "i" (i 1) (i 4) [ set "A" [ iv ] (elem "B" [ iv +: i off ] +: f 1.0) ]
  in
  List.iter
    (fun (name, body, want) ->
      let p = program ~name:"exec-test" ~decls:ab body in
      List.iter
        (fun (ename, engine) ->
          let got =
            match Exec.run ~engine ~nprocs:2 p with
            | _ -> "no diagnostic"
            | exception Exec.Xdp_misuse m -> m
          in
          Alcotest.(check string) (name ^ " (" ^ ename ^ ")") want got)
        configs)
    [
      ( "read runs past the segment on its last iteration",
        [ (mypid =: i 1) @: [ store 1 ] ],
        "P1 at t=19.0 in exec-test: read of unowned B[5] outside a compute \
         rule" );
      ( "read starts outside the segment",
        [ store 4 ],
        "P1 at t=3.0 in exec-test: read of unowned B[5] outside a compute \
         rule" );
    ]

(* The staged engine inlines fft1D over a memoized marshalling plan
   that it revalidates on every call; the reference engine packs and
   unpacks through the symbol table.  Both must agree on the arrays,
   the stats record and every processor's descriptor visits for a
   plan over one segment, a plan over two, a re-apply at the same site
   to the section translated along its dimension (the plan's runs
   shift), and a re-apply after one piece left and came back through
   an ownership transfer (the plan is stale and rebuilt). *)
let test_inlined_fft_parity () =
  let a16 seg =
    [
      decl ~name:"A" ~shape:[ 16 ] ~dist:[ Xdp_dist.Dist.Block ]
        ~grid:(grid 2) ~seg_shape:[ seg ] ();
    ]
  in
  let on1 body = (mypid =: i 1) @: body in
  let fft lo hi = apply "fft1D" [ sec "A" [ slice lo hi ] ] in
  let jv = var "j" in
  let moved = sec "A" [ slice (i 5) (i 8) ] in
  let cases =
    [
      ("one segment", 8, [ on1 [ fft (i 1) (i 8) ] ]);
      ("two segments", 4, [ on1 [ fft (i 1) (i 8) ] ]);
      ( "translated re-apply",
        8,
        [
          loop "j" (i 0) (i 1)
            [ on1 [ fft (i 1 +: (jv *: i 4)) (i 4 +: (jv *: i 4)) ] ];
        ] );
      ( "re-apply after a transfer",
        4,
        [
          loop "j" (i 1) (i 2)
            [
              on1 [ fft (i 1) (i 8) ];
              on1 [ send_owner_value moved ];
              (mypid =: i 2)
              @: [
                   recv_owner_value moved;
                   await moved @: [ send_owner_value moved ];
                 ];
              on1 [ recv_owner_value moved; await moved @: [] ];
            ];
        ] );
    ]
  in
  let init _ idx = float_of_int ((List.hd idx * 7 mod 11) - 5) in
  List.iter
    (fun (name, seg, body) ->
      let p = program ~name:"exec-test" ~decls:(a16 seg) body in
      let run engine = Exec.run ~engine ~init ~nprocs:2 p in
      let c = run `Compiled and r = run `Interp in
      Alcotest.(check bool) (name ^ ": arrays") true
        (Xdp_util.Tensor.equal ~eps:0.0 (Exec.array r "A") (Exec.array c "A"));
      Alcotest.(check bool) (name ^ ": stats") true (r.stats = c.stats);
      let visits res =
        Array.to_list
          (Array.map Xdp_symtab.Symtab.descriptor_visits res.Exec.symtabs)
      in
      Alcotest.(check (list int)) (name ^ ": descriptor visits") (visits r)
        (visits c))
    cases

let () =
  Alcotest.run "exec"
    [
      ( "unit",
        [
          Alcotest.test_case "guarded writes" `Quick test_spmd_guarded_writes;
          Alcotest.test_case "universal scalars" `Quick
            test_universal_scalars_replicated;
          Alcotest.test_case "transfer roundtrip" `Quick
            test_transfer_roundtrip;
          Alcotest.test_case "misuse diagnostics" `Quick
            test_misuse_diagnostics;
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detection;
          Alcotest.test_case "unmatched reported" `Quick
            test_unmatched_reported;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "cost sensitivity" `Quick
            test_cost_model_sensitivity;
          Alcotest.test_case "ownership defects" `Quick
            test_gather_and_ownership_defects;
          Alcotest.test_case "nprocs mismatch" `Quick
            test_layout_procs_mismatch;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "descriptor visits equal across engines" `Quick
            test_visits_engine_independent;
          Alcotest.test_case "trace recorded" `Quick
            test_trace_events_recorded;
          Alcotest.test_case "compiled heap <= 2x interp (redist P=32)" `Quick
            test_compiled_heap_tripwire;
          Alcotest.test_case "delivery lands mid-scan" `Quick
            test_delivery_mid_scan;
          Alcotest.test_case "delivery lands mid-fused-run" `Quick
            test_delivery_mid_fused_run;
          Alcotest.test_case "impure guards scan past a pending receive"
            `Quick test_impure_scan_past_pending_receive;
          Alcotest.test_case "guard scans >= 0.8 of statements (redist P=32)"
            `Quick test_guard_scan_tripwire;
          Alcotest.test_case
            "overlapped sweeps run fused >= 0.95 of statements (jacobi P=4)"
            `Quick test_overlap_run_ahead_tripwire;
          Alcotest.test_case "engine names" `Quick test_engine_names;
          Alcotest.test_case "false iown and charge allocate nothing" `Quick
            test_zero_alloc_tripwire;
          Alcotest.test_case "batched loop misuse: interpreter's clock" `Quick
            test_batched_loop_parity;
          Alcotest.test_case "range kernel allocation independent of trips"
            `Quick test_range_kernel_alloc;
          Alcotest.test_case "inlined fft1D: engine parity" `Quick
            test_inlined_fft_parity;
        ] );
    ]
