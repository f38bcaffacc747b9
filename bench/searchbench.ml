(* Placement search: naive replication vs the hand layout vs the
   annealed winner (DESIGN.md section 11).

   Sweeps machine size on the dlstack training step — a
   pipeline-parallel layer stack with a data-parallel allreduce —
   comparing three placements of the same workload: the naive
   fully-replicated anchor, the hand-written row-sharded data-parallel
   layout, and the enumerate-then-anneal winner scored by the static
   estimator.  Every placement is lowered through the ordinary
   pipeline (verifier, staged engine, fusion) and executed where the
   size permits; past [exec_limit] the sweep reports the estimator's
   totals alone, which the executed sizes certify exact.

   For each P the sweep records estimated and executed endpoint
   messages/bytes and makespans, the search wall time and its
   candidates-per-second scoring rate, and the estimator's per-call
   latency against one real build+execute of the naive program.

   Tripwires (deterministic, armed in smoke and full runs alike):
   estimated messages and bytes must equal the executed Stats exactly
   for all three placements wherever runs execute; all three runs
   must match the analytic reference bit-exactly; the searched
   estimated cost must not exceed either anchor's; the searched
   executed wire bytes must undercut naive replication by at least 2x
   at every executed size; and scoring a placement statically must be
   at least 100x faster than building and executing it at the
   smallest (cheapest-to-execute) size.
   Results go to stdout and BENCH_search.json. *)

module Exec = Xdp_runtime.Exec
module Dlstack = Xdp_apps.Dlstack
module Space = Xdp_search.Space
module Anneal = Xdp_search.Anneal
module Estimate = Xdp_search.Estimate
module Trace = Xdp_sim.Trace
module J = Xdp_util.Jsonw

let opts = Anneal.default_options

(* Median-of-repeats per-call estimator latency: one call is far below
   the clock's useful resolution, so time a batch and divide. *)
let estimate_seconds cfg pl =
  let reps = 200 in
  let (), dt =
    Runs.time (fun () ->
        for _ = 1 to reps do
          ignore (Space.estimate cfg pl)
        done)
  in
  dt /. float_of_int reps

(* Build and execute one placement; the verdict of the analytic
   reference check comes back with the result. *)
let run_one cfg pl =
  let prog = Dlstack.build cfg pl in
  let r =
    Exec.run ~init:Dlstack.init ~max_steps:40_000_000 ~nprocs:cfg.Space.procs
      prog
  in
  (r.Exec.stats, Dlstack.check cfg pl (Exec.array r))

(* One size: a row per placement (naive, hand, searched) and the
   size's tripwires.  [speed] arms the estimator-speed tripwire, which
   runs at the smallest executed size: execution is cheapest there, so
   the margin only grows with P. *)
let measure ~execute ~speed cfg =
  let procs = cfg.Space.procs in
  let r, search_s = Runs.time (fun () -> Anneal.search cfg opts) in
  let est_s = estimate_seconds cfg r.Anneal.best in
  let lays =
    List.map
      (fun (name, pl, (est : Space.summary)) ->
        let ran =
          if execute then Some (Runs.time (fun () -> run_one cfg pl)) else None
        in
        (name, pl, est, ran))
      [
        ("naive", Space.naive cfg, r.Anneal.naive_summary);
        ("hand", Space.hand cfg, r.Anneal.hand_summary);
        ("searched", r.Anneal.best, r.Anneal.best_summary);
      ]
  in
  let get name = List.find (fun (n, _, _, _) -> n = name) lays in
  let est_bytes (_, _, (est : Space.summary), _) =
    est.comm.Estimate.wire_bytes
  in
  let ran_bytes (_, _, _, ran) =
    Option.map (fun (((s : Trace.stats), _), _) -> s.bytes) ran
  in
  let naive = get "naive" and hand = get "hand" and searched = get "searched" in
  let naive_exec_s =
    match naive with _, _, _, Some (_, dt) -> Some dt | _ -> None
  in
  let bytes_ratio =
    let or_est l = Option.value (ran_bytes l) ~default:(est_bytes l) in
    float_of_int (or_est naive) /. float_of_int (max 1 (or_est searched))
  in
  let config =
    [
      ("procs", J.Int procs);
      ("batch", J.Int cfg.Space.batch);
      ("dim", J.Int cfg.Space.dim);
      ("layers", J.Int cfg.Space.nlayers);
      ("mode", J.Str (if execute then "measured" else "estimated"));
    ]
  in
  let rows =
    List.map
      (fun (name, pl, (est : Space.summary), ran) ->
        Runs.row name ~config
          ?wall_s:(Option.map snd ran)
          ?stats:(Option.map (fun ((s, _), _) -> s) ran)
          ?identical:(Option.map (fun ((_, ok), _) -> ok = Ok ()) ran)
          ([
             ("key", J.Str (Space.key pl));
             ("est_msgs", J.Int est.comm.Estimate.msgs);
             ("est_bytes", J.Int est.comm.Estimate.wire_bytes);
             ("est_makespan", J.Fixed (est.est_makespan, 1));
           ]
          @
          if name <> "searched" then []
          else
            [
              ("search_seconds", J.Fixed (search_s, 4));
              ("candidates", J.Int r.Anneal.evaluated);
              ("seeds", J.Int r.Anneal.seeded);
              ( "candidates_per_second",
                J.Fixed
                  ( float_of_int r.Anneal.evaluated /. Float.max 1e-9 search_s,
                    0 ) );
              ("estimate_microseconds", J.Fixed (1e6 *. est_s, 2));
              ("bytes_ratio_vs_naive", J.Fixed (bytes_ratio, 3));
            ]))
      lays
  in
  let fmt = Printf.sprintf in
  let executed =
    List.concat_map
      (fun (name, _, (est : Space.summary), ran) ->
        match ran with
        | None -> []
        | Some (((s : Trace.stats), ok), _) ->
            let e = est.comm in
            [
              ( ok = Ok (),
                fmt "P=%d %s: %s" procs name
                  (match ok with Ok () -> "" | Error e -> e) );
              (* estimator exactness against the executed Stats *)
              ( s.messages = e.Estimate.msgs,
                fmt "P=%d %s: estimated %d msgs, executed %d" procs name
                  e.Estimate.msgs s.messages );
              ( s.bytes = e.Estimate.wire_bytes,
                fmt "P=%d %s: estimated %d bytes, executed %d" procs name
                  e.Estimate.wire_bytes s.bytes );
            ])
      lays
  in
  ( rows,
    executed
    @ [
        (* the searched estimate never loses to either anchor *)
        ( est_bytes searched <= est_bytes naive,
          fmt "P=%d: searched estimate %dB above naive %dB" procs
            (est_bytes searched) (est_bytes naive) );
        ( est_bytes searched <= est_bytes hand,
          fmt "P=%d: searched estimate %dB above hand %dB" procs
            (est_bytes searched) (est_bytes hand) );
        (* the headline claim: executed searched bytes undercut naive >= 2x *)
        (match (ran_bytes naive, ran_bytes searched) with
        | Some nb, Some sb ->
            ( sb * 2 <= nb,
              fmt "P=%d: searched %dB not 2x under naive %dB" procs sb nb )
        | _ -> (true, ""));
        (match naive_exec_s with
        | Some exec_s when speed ->
            ( exec_s >= 100.0 *. est_s,
              fmt
                "P=%d: estimator %.1fus per call is not 100x under the %.1fms \
                 naive execution"
                procs (1e6 *. est_s) (1e3 *. exec_s) )
        | _ -> (true, ""));
      ] )

let run ?(smoke = false) () =
  Printf.printf
    "\n========= placement search: naive vs hand vs annealed =========\n\n%!";
  let sizes =
    (* (procs, batch, dim, layers, execute) — batch must divide by
       procs, so the estimator-only tail scales it with P *)
    if smoke then [ (8, 32, 16, 4, true); (16, 32, 16, 4, true) ]
    else
      [
        (64, 128, 64, 6, true);
        (128, 128, 64, 6, true);
        (512, 512, 64, 6, false);
        (1024, 1024, 64, 6, false);
      ]
  in
  let rows, tripwires =
    List.split
      (List.mapi
         (fun i (procs, batch, dim, nlayers, execute) ->
           measure ~execute ~speed:(i = 0) { Space.procs; batch; dim; nlayers })
         sizes)
  in
  let rows = List.concat rows in
  Runs.report ~bench:"search" ~smoke
    ~title:"dlstack: estimated vs executed endpoint traffic per placement"
    ~config:
      [
        ("app", J.Str "dlstack");
        ("objective", J.Str (Anneal.objective_name opts.Anneal.objective));
        ("seed", J.Int opts.Anneal.seed);
        ("rounds", J.Int opts.Anneal.rounds);
        ("proposals", J.Int opts.Anneal.proposals);
        ("cost", J.Str "message_passing");
      ]
    rows;
  Runs.check ~bench:"search" rows (List.concat tripwires)
