(* The placement search subsystem (DESIGN.md §11): the static cost
   estimator, the dlstack elaborator, and the annealer —

   - exactness: estimated endpoint messages and wire bytes equal the
     executed Stats of the elaborated program, on every uniform
     placement over every mesh and on mixed-activation pipelines
     (the contract the whole search rests on);
   - the searched estimated cost never loses to the naive or hand
     anchors on any sampled configuration (qcheck property);
   - the searched program is bit-identical to the analytic reference
     across engines, cost models and fault plans (qcheck property);
   - ranking placements by estimated bytes agrees with ranking by
     executed bytes as P refines (qcheck property);
   - the search is a pure function of (config, options): same seed
     twice is identical;
   - overflow-checked totals: estimator arithmetic near the 2^61
     byte boundary raises instead of wrapping. *)

module Space = Xdp_search.Space
module Anneal = Xdp_search.Anneal
module Estimate = Xdp_search.Estimate
module Dlstack = Xdp_apps.Dlstack
module Exec = Xdp_runtime.Exec
module Trace = Xdp_sim.Trace
module G = QCheck.Gen

let mp = Xdp_sim.Costmodel.message_passing

let run_checked ?engine ?cost ?fault cfg pl =
  let prog = Dlstack.build cfg pl in
  Xdp.Wf.check_exn prog;
  let r =
    Exec.run ?engine ?cost ?fault ~init:Dlstack.init ~nprocs:cfg.Space.procs
      prog
  in
  (match Dlstack.check cfg pl (Exec.array r) with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "%s: result diverged from analytic reference: %s"
        (Space.key pl) e);
  r

let exec_comm cfg pl =
  let r = run_checked cfg pl in
  (r.Exec.stats.Trace.messages, r.Exec.stats.Trace.bytes)

let check_exact cfg pl =
  let est = Space.estimate cfg pl in
  let msgs, bytes = exec_comm cfg pl in
  Alcotest.(check int)
    (Space.key pl ^ ": estimated messages = executed")
    msgs est.Space.comm.Estimate.msgs;
  Alcotest.(check int)
    (Space.key pl ^ ": estimated wire bytes = executed")
    bytes est.Space.comm.Estimate.wire_bytes

(* ---- exactness: every uniform placement over every mesh ---- *)

let test_exact_uniform () =
  let cfg = { Space.procs = 4; batch = 8; dim = 4; nlayers = 3 } in
  let cases = ref 0 in
  List.iter
    (fun (dp, pp) ->
      List.iter
        (fun act ->
          List.iter
            (fun wgt ->
              List.iter
                (fun gsum ->
                  match Space.uniform cfg ~dp ~pp act wgt gsum with
                  | Some pl ->
                      incr cases;
                      check_exact cfg pl
                  | None -> ())
                [ Space.Tree; Space.Allgather ])
            [ Space.Wshard; Space.Wrepl ])
        [ Space.Row; Space.Col; Space.Repl ])
    (Space.meshes cfg);
  (* 12 distinct normalized placements per mesh family exist here;
     guard against the sweep silently shrinking *)
  Alcotest.(check bool)
    (Printf.sprintf "swept %d uniform cases (>= 16)" !cases)
    true (!cases >= 16)

(* ---- exactness: mixed-activation pipelines (all transfer kinds) ---- *)

let test_exact_mixed () =
  let cfg = { Space.procs = 4; batch = 8; dim = 4; nlayers = 3 } in
  let mixed acts stages =
    let layers =
      Array.init 3 (fun k ->
          {
            Space.stage = stages.(k);
            act = acts.(k);
            wgt = Space.Wrepl;
            gsum = Space.Tree;
          })
    in
    Space.normalize { Space.dp = 2; pp = 2; layers }
  in
  List.iter
    (fun (a1, a2, a3) ->
      List.iter
        (fun st ->
          let pl = mixed [| a1; a2; a3 |] st in
          match Space.validate cfg pl with
          | Error e -> Alcotest.failf "%s: unexpectedly invalid: %s"
                         (Space.key pl) e
          | Ok () -> check_exact cfg pl)
        [ [| 0; 0; 1 |]; [| 0; 1; 1 |] ])
    [
      (Space.Row, Space.Col, Space.Repl);
      (Space.Col, Space.Repl, Space.Row);
      (Space.Repl, Space.Row, Space.Col);
      (Space.Col, Space.Row, Space.Repl);
    ]

(* ---- generators ---- *)

let gen_cfg =
  G.(
    let* procs = oneofl [ 2; 4; 8 ] in
    let* bmul = int_range 1 3 in
    let* dim = oneofl [ 4; 8; 12 ] in
    let* nlayers = int_range 1 4 in
    return { Space.procs; batch = procs * bmul; dim; nlayers })

(* a uniform placement sampled from the valid ones of a config *)
let gen_placement cfg =
  let all =
    List.concat_map
      (fun (dp, pp) ->
        List.filter_map
          (fun (act, wgt, gsum) -> Space.uniform cfg ~dp ~pp act wgt gsum)
          (List.concat_map
             (fun a ->
               List.concat_map
                 (fun w ->
                   List.map (fun g -> (a, w, g)) [ Space.Tree; Space.Allgather ])
                 [ Space.Wshard; Space.Wrepl ])
             [ Space.Row; Space.Col; Space.Repl ]))
      (Space.meshes cfg)
  in
  G.oneofl all

let quick_opts seed objective =
  { Anneal.seed; rounds = 20; proposals = 4; objective }

(* ---- property: searched estimate <= both anchors ---- *)

let prop_searched_beats_anchors =
  QCheck.Test.make ~name:"searched estimated cost <= naive and hand anchors"
    ~count:30
    (QCheck.make
       G.(
         let* cfg = gen_cfg in
         let* seed = int_range 1 1000 in
         let* obj = oneofl [ Anneal.Bytes; Anneal.Makespan ] in
         return (cfg, seed, obj)))
    (fun (cfg, seed, obj) ->
      let r = Anneal.search cfg (quick_opts seed obj) in
      (* the search's own order (Anneal.better): the objective, then
         endpoint messages; its final tie-break, the canonical key,
         only orders placements equal on both *)
      let worth (s : Space.summary) =
        let primary =
          match obj with
          | Anneal.Bytes -> float_of_int s.Space.comm.Estimate.wire_bytes
          | Anneal.Makespan -> s.Space.est_makespan
        in
        (primary, s.Space.comm.Estimate.msgs)
      in
      if worth r.Anneal.best_summary > worth r.Anneal.naive_summary then
        QCheck.Test.fail_reportf "searched loses to naive on %s"
          (Space.key r.Anneal.best);
      if worth r.Anneal.best_summary > worth r.Anneal.hand_summary then
        QCheck.Test.fail_reportf "searched loses to hand on %s"
          (Space.key r.Anneal.best);
      true)

(* ---- property: searched program bit-identical everywhere ---- *)

let prop_searched_bit_identical =
  QCheck.Test.make
    ~name:"searched program bit-identical across engines x costs x faults"
    ~count:8
    (QCheck.make
       G.(
         let* cfg = gen_cfg in
         let* seed = int_range 1 1000 in
         return (cfg, seed)))
    (fun (cfg, seed) ->
      let r = Anneal.search cfg (quick_opts seed Anneal.Bytes) in
      let pl = r.Anneal.best in
      let faulty =
        Xdp_net.Faultplan.make ~seed ~drop:0.15 ~dup:0.1 ~jitter:0.25 ()
      in
      List.iter
        (fun (engine, cost, fault) ->
          ignore (run_checked ~engine ~cost ?fault cfg pl))
        [
          (`Compiled, Xdp_sim.Costmodel.message_passing, None);
          (`Interp, Xdp_sim.Costmodel.message_passing, None);
          (`Compiled, Xdp_sim.Costmodel.shared_address, None);
          (`Interp, Xdp_sim.Costmodel.idealized, None);
          (`Compiled, Xdp_sim.Costmodel.message_passing, Some faulty);
          (`Interp, Xdp_sim.Costmodel.message_passing, Some faulty);
        ];
      true)

(* ---- property: estimated ranking = executed ranking ---- *)

let prop_rank_agreement =
  QCheck.Test.make
    ~name:"estimator ranks placement pairs like the executed Stats" ~count:20
    (QCheck.make
       G.(
         let* cfg = gen_cfg in
         let* a = gen_placement cfg in
         let* b = gen_placement cfg in
         return (cfg, a, b)))
    (fun (cfg, a, b) ->
      let est pl = (Space.estimate cfg pl).Space.comm in
      let ea = est a and eb = est b in
      let xa = exec_comm cfg a and xb = exec_comm cfg b in
      let order (m, by) (m', by') = compare (by, m) (by', m') in
      let est_order =
        order
          (ea.Estimate.msgs, ea.Estimate.wire_bytes)
          (eb.Estimate.msgs, eb.Estimate.wire_bytes)
      in
      if est_order <> order xa xb then
        QCheck.Test.fail_reportf
          "rank flip between %s and %s: estimated %d, executed %d"
          (Space.key a) (Space.key b) est_order (order xa xb);
      true)

(* ---- determinism: pure in (config, options) ---- *)

let test_deterministic () =
  let cfg = { Space.procs = 8; batch = 16; dim = 8; nlayers = 3 } in
  let opts = Anneal.default_options in
  let r1 = Anneal.search cfg opts in
  let r2 = Anneal.search cfg opts in
  Alcotest.(check string)
    "same seed, same winner" (Space.key r1.Anneal.best)
    (Space.key r2.Anneal.best);
  Alcotest.(check int)
    "same seed, same candidate count" r1.Anneal.evaluated r2.Anneal.evaluated;
  (* a different seed may move, but never past the anchors *)
  let r3 = Anneal.search cfg { opts with Anneal.seed = 77 } in
  Alcotest.(check bool)
    "seed 77 still <= naive" true
    (r3.Anneal.best_summary.Space.comm.Estimate.wire_bytes
    <= r3.Anneal.naive_summary.Space.comm.Estimate.wire_bytes)

(* ---- overflow-checked totals ---- *)

let test_overflow () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  (* payload fits in 2^60 elements, but the byte total crosses 2^63 *)
  Alcotest.(check bool)
    "byte total past the boundary raises" true
    (raises (fun () ->
         Estimate.messages mp ~count:(1 lsl 40) ~elems:(1 lsl 20)));
  Alcotest.(check bool)
    "element count overflow raises" true
    (raises (fun () ->
         Estimate.messages mp ~count:(1 lsl 32) ~elems:(1 lsl 32)));
  Alcotest.(check bool)
    "add past max_int raises" true
    (raises (fun () ->
         Estimate.add
           { Estimate.msgs = 1; payload_elems = 1; wire_bytes = max_int }
           { Estimate.msgs = 1; payload_elems = 1; wire_bytes = 1 }));
  Alcotest.(check bool)
    "negative scale raises" true
    (raises (fun () -> Estimate.scale (-1) Estimate.zero));
  (* undirected messages carry headers; directed (the default) do not *)
  let d = Estimate.messages mp ~count:3 ~elems:10 in
  let u = Estimate.messages ~directed:false mp ~count:3 ~elems:10 in
  Alcotest.(check int) "directed wire bytes" 240 d.Estimate.wire_bytes;
  Alcotest.(check int)
    "undirected adds per-message headers"
    (240 + (3 * mp.Xdp_sim.Costmodel.header_bytes))
    u.Estimate.wire_bytes

(* ---- the validator rejects what the elaborator would refuse ---- *)

let test_validate_rejects () =
  let cfg = { Space.procs = 4; batch = 8; dim = 6; nlayers = 2 } in
  let layer stage act wgt = { Space.stage; act; wgt; gsum = Space.Tree } in
  let rejects pl =
    match Space.validate cfg pl with Error _ -> true | Ok () -> false
  in
  Alcotest.(check bool)
    "mesh must factor procs" true
    (rejects
       { Space.dp = 3; pp = 1; layers = [| layer 0 Space.Row Space.Wrepl |] });
  Alcotest.(check bool)
    "layer count must match" true
    (rejects
       { Space.dp = 4; pp = 1; layers = [| layer 0 Space.Row Space.Wrepl |] });
  Alcotest.(check bool)
    "stages must be monotone" true
    (rejects
       {
         Space.dp = 2;
         pp = 2;
         layers =
           [| layer 1 Space.Row Space.Wrepl; layer 0 Space.Row Space.Wrepl |];
       });
  Alcotest.(check bool)
    "dim mod dp for feature sharding" true
    (rejects
       {
         Space.dp = 4;
         pp = 1;
         layers =
           [| layer 0 Space.Col Space.Wshard; layer 0 Space.Col Space.Wshard |];
       });
  Alcotest.(check bool)
    "bad batch rejected at the config" true
    (match Space.validate_config { cfg with Space.batch = 9 } with
    | Error _ -> true
    | Ok () -> false)

let () =
  Alcotest.run "search"
    [
      ( "exactness",
        [
          Alcotest.test_case "uniform placements" `Quick test_exact_uniform;
          Alcotest.test_case "mixed pipelines" `Quick test_exact_mixed;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_searched_beats_anchors;
          QCheck_alcotest.to_alcotest prop_searched_bit_identical;
          QCheck_alcotest.to_alcotest prop_rank_agreement;
        ] );
      ( "anneal",
        [ Alcotest.test_case "deterministic" `Quick test_deterministic ] );
      ( "estimate",
        [
          Alcotest.test_case "overflow" `Quick test_overflow;
          Alcotest.test_case "validate" `Quick test_validate_rejects;
        ] );
    ]
