(* Redistribution: naive all-to-all vs the collective planner
   (DESIGN.md section 10).

   Sweeps machine size on the redistflow app — the fft3d corner-turn
   all-to-all with the compute stripped — and compares the naive
   lowering (every transfer posted at once) against the planned
   collective schedule under a per-processor peak-bytes budget set
   well below the naive peak.  For each P the sweep records measured
   makespans and measured peak in-flight bytes, the planner's choice
   (shape, window, stages) and its static estimate, and checks final
   tensors bit-identical to the reference contents.

   Execution is bounded: an all-to-all lowers to O(P^2) statements and
   every processor walks all of them, so executed time grows as P^3.
   Past [exec_limit] the sweep therefore
   reports the exact analytic naive bound (Collective.naive_peak:
   every processor posts its whole outgoing volume before anything
   drains) and the planner's certified estimate (est_peak,
   est_makespan), both validated against measurement at every size
   where the runs still execute.  Such rows have mode "analytic" and
   null measured columns, [identical] included.

   Tripwires (deterministic, armed in smoke and full runs alike):
   the planner must report a feasible schedule whose estimated peak
   is within budget, the measured planned peak must stay within the
   budget wherever the run executes, the naive peak must exceed that
   same budget at every size, and tensors must match the reference
   exactly; where naive runs, its measured peak must confirm the
   analytic bound and from P = 256 the measured planned makespan must
   not exceed the measured naive one.
   Results go to stdout and BENCH_redist.json. *)

module Exec = Xdp_runtime.Exec
module Redistflow = Xdp_apps.Redistflow
module Plan_redist = Xdp.Plan_redist
module Collective = Xdp_dist.Collective
module Trace = Xdp_sim.Trace
module Costmodel = Xdp_sim.Costmodel
module J = Xdp_util.Jsonw

let m = 2
let exec_limit = 256 (* largest P where runs are executed (see above) *)

let cost = Costmodel.message_passing

let analytic_naive_peak ~n ~nprocs =
  let moves =
    Xdp_dist.Redistribution.plan
      ~src:(Redistflow.layout_before ~n ~m ~nprocs)
      ~dst:(Redistflow.layout_after ~n ~m ~nprocs)
  in
  Collective.naive_peak cost ~nprocs moves

let run_one ~n ~nprocs ~strategy ~redist_stages ~max_steps =
  let prog = Redistflow.build ~n ~nprocs ~m ~strategy () in
  Exec.run ~init:Redistflow.init ~redist_stages ~max_steps ~nprocs prog

let measure ~budget_div nprocs =
  let n = 2 * nprocs in
  let naive_peak = analytic_naive_peak ~n ~nprocs in
  let budget = naive_peak / budget_div in
  let info =
    snd
      (Plan_redist.plan ~nprocs ~budget
         (Xdp_dist.Redistribution.plan
            ~src:(Redistflow.layout_before ~n ~m ~nprocs)
            ~dst:(Redistflow.layout_after ~n ~m ~nprocs)))
  in
  let executed = nprocs <= exec_limit in
  let planned =
    if executed then
      Some
        (run_one ~n ~nprocs
           ~strategy:(`Collectives { Plan_redist.peak_budget = budget })
           ~redist_stages:info.Plan_redist.stages
           ~max_steps:(8 * nprocs * nprocs * (info.Plan_redist.stages + 4)))
    else None
  in
  let naive =
    if executed then
      Some
        (run_one ~n ~nprocs ~strategy:`Naive ~redist_stages:0
           ~max_steps:(max 20_000_000 (4 * nprocs * nprocs * nprocs)))
    else None
  in
  let identical =
    if not executed then None
    else
      let reference = Redistflow.reference ~n ~m () in
      let ok = function
        | None -> true
        | Some (r : Exec.result) ->
            Xdp_util.Tensor.equal ~eps:0.0 (Exec.array r "A") reference
      in
      Some (ok planned && ok naive)
  in
  let stat f = Option.map (fun (r : Exec.result) -> f r.Exec.stats) in
  let naive_ms = stat (fun s -> s.Trace.makespan) naive
  and planned_ms = stat (fun s -> s.Trace.makespan) planned
  and naive_meas = stat Trace.max_peak_inflight naive
  and planned_meas = stat Trace.max_peak_inflight planned in
  let int_opt = Option.fold ~none:J.Null ~some:(fun b -> J.Int b) in
  let { Plan_redist.est_peak; est_makespan; feasible; stages; window; _ } =
    info
  in
  ( Runs.row (Printf.sprintf "P=%d" nprocs)
      ~config:
        [
          ("procs", J.Int nprocs);
          ("n", J.Int n);
          ("mode", J.Str (if executed then "measured" else "analytic"));
          ("budget", J.Int budget);
        ]
      ?stats:(stat Fun.id planned) ?identical
      [
        ("naive_peak", J.Int naive_peak);
        ("naive_peak_measured", int_opt naive_meas);
        ( "naive_makespan",
          Option.fold ~none:J.Null ~some:(fun ms -> J.Float ms) naive_ms );
        ("planned_peak_measured", int_opt planned_meas);
        ( "peak_ratio",
          J.Fixed
            ( float_of_int naive_peak
              /. float_of_int
                   (max 1 (Option.value planned_meas ~default:est_peak)),
              3 ) );
        ("shape", J.Str (Collective.shape_name info.Plan_redist.shape));
        ("window", J.Int window);
        ("stages", J.Int stages);
        ("est_peak", J.Int est_peak);
        ("est_makespan", J.Fixed (est_makespan, 1));
        ("feasible", J.Bool feasible);
        ( "makespan_ratio",
          match (naive_ms, planned_ms) with
          | Some nms, Some pms -> J.Fixed (nms /. pms, 3)
          | _ -> J.Null );
      ],
    let fmt = Printf.sprintf in
    let meas = Option.value ~default:0 in
    [
      ( identical <> Some false,
        fmt "P=%d: final tensor diverged from reference" nprocs );
      ( feasible,
        fmt "P=%d: planner found no schedule within %dB" nprocs budget );
      ( est_peak <= budget,
        fmt "P=%d: estimated peak %dB exceeds budget %dB" nprocs est_peak
          budget );
      ( Option.fold ~none:true ~some:(fun b -> b <= budget) planned_meas,
        fmt "P=%d: planned peak %dB exceeds budget %dB" nprocs
          (meas planned_meas) budget );
      ( naive_peak > budget,
        fmt "P=%d: naive peak %dB unexpectedly within budget %dB" nprocs
          naive_peak budget );
      ( Option.fold ~none:true ~some:(fun b -> b >= naive_peak) naive_meas,
        fmt "P=%d: measured naive peak %dB below analytic bound %dB" nprocs
          (meas naive_meas) naive_peak );
      ( (match (naive_ms, planned_ms) with
        | Some nms, Some pms -> nprocs < 256 || pms <= nms
        | _ -> true),
        fmt "P=%d: planned makespan %.1f above naive %.1f" nprocs
          (Option.value planned_ms ~default:0.0)
          (Option.value naive_ms ~default:0.0) );
    ] )

let run ?(smoke = false) () =
  Printf.printf
    "\n========= redistribution: naive vs collective planner =========\n\n%!";
  let procs, budget_div =
    if smoke then ([ 16; 32 ], 2) else ([ 64; 128; 256; 512; 1024 ], 4)
  in
  let rows, tripwires = List.split (List.map (measure ~budget_div) procs) in
  Runs.report ~bench:"redist" ~smoke
    ~title:
      (Printf.sprintf "redistflow: naive vs planned (budget = naive_peak/%d)"
         budget_div)
    ~config:
      [
        ("app", J.Str "redistflow");
        ("m", J.Int m);
        ("budget_div", J.Int budget_div);
        ("exec_limit", J.Int exec_limit);
        ("cost", J.Str "message_passing");
      ]
    rows;
  Runs.check ~bench:"redist" rows (List.concat tripwires)
