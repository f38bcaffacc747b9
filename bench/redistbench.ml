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
   where the runs still execute; starred in the table, null-measured
   in the JSON.

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

let m = 2
let exec_limit = 256 (* largest P where runs are executed (see above) *)

type point = {
  p_procs : int;
  p_n : int;
  p_budget : int;
  p_naive_peak : int; (* analytic; confirmed by measurement when run *)
  p_naive_makespan : float option;
  p_naive_peak_meas : int option;
  p_planned_makespan : float option; (* measured, when executed *)
  p_planned_peak_meas : int option;
  p_shape : string;
  p_window : int;
  p_stages : int;
  p_est_peak : int;
  p_est_makespan : float;
  p_feasible : bool;
  p_identical : bool; (* vacuously true when nothing executed *)
}

let cost = Costmodel.message_passing

let analytic_naive_peak ~n ~nprocs =
  let moves =
    Xdp_dist.Redistribution.plan
      ~src:(Redistflow.layout_before ~n ~m ~nprocs)
      ~dst:(Redistflow.layout_after ~n ~m ~nprocs)
  in
  Collective.naive_peak ~nprocs ~elem_bytes:cost.Costmodel.elem_bytes
    ~header_bytes:cost.Costmodel.header_bytes moves

let run_one ~n ~nprocs ~strategy ~redist_stages ~max_steps =
  let prog = Redistflow.build ~n ~nprocs ~m ~strategy () in
  Exec.run ~init:Redistflow.init ~redist_stages ~max_steps ~nprocs prog

let measure ~budget_div nprocs =
  let n = 2 * nprocs in
  let naive_peak = analytic_naive_peak ~n ~nprocs in
  let budget = naive_peak / budget_div in
  let info =
    snd
      (Plan_redist.plan ~params:Plan_redist.default_params ~nprocs ~budget
         (Xdp_dist.Redistribution.plan
            ~src:(Redistflow.layout_before ~n ~m ~nprocs)
            ~dst:(Redistflow.layout_after ~n ~m ~nprocs)))
  in
  let planned =
    if nprocs <= exec_limit then
      Some
        (run_one ~n ~nprocs
           ~strategy:(`Collectives { Plan_redist.peak_budget = budget })
           ~redist_stages:info.Plan_redist.stages
           ~max_steps:(8 * nprocs * nprocs * (info.Plan_redist.stages + 4)))
    else None
  in
  let naive =
    if nprocs <= exec_limit then
      Some
        (run_one ~n ~nprocs ~strategy:`Naive ~redist_stages:0
           ~max_steps:(max 20_000_000 (4 * nprocs * nprocs * nprocs)))
    else None
  in
  let identical =
    match (planned, naive) with
    | None, None -> true
    | _ ->
        let reference = Redistflow.reference ~n ~m () in
        let ok = function
          | None -> true
          | Some (r : Exec.result) ->
              Xdp_util.Tensor.equal ~eps:0.0 (Exec.array r "A") reference
        in
        ok planned && ok naive
  in
  {
    p_procs = nprocs;
    p_n = n;
    p_budget = budget;
    p_naive_peak = naive_peak;
    p_naive_makespan =
      Option.map (fun (r : Exec.result) -> r.stats.Trace.makespan) naive;
    p_naive_peak_meas =
      Option.map (fun (r : Exec.result) -> Trace.max_peak_inflight r.stats) naive;
    p_planned_makespan =
      Option.map (fun (r : Exec.result) -> r.stats.Trace.makespan) planned;
    p_planned_peak_meas =
      Option.map
        (fun (r : Exec.result) -> Trace.max_peak_inflight r.stats)
        planned;
    p_shape = Collective.shape_name info.Plan_redist.shape;
    p_window = info.Plan_redist.window;
    p_stages = info.Plan_redist.stages;
    p_est_peak = info.Plan_redist.est_peak;
    p_est_makespan = info.Plan_redist.est_makespan;
    p_feasible = info.Plan_redist.feasible;
    p_identical = identical;
  }

let check p =
  let fail fmt = Printf.ksprintf failwith fmt in
  if not p.p_identical then
    fail "redist sweep: P=%d: final tensor diverged from reference" p.p_procs;
  if not p.p_feasible then
    fail "redist sweep: P=%d: planner found no schedule within %dB" p.p_procs
      p.p_budget;
  if p.p_est_peak > p.p_budget then
    fail "redist sweep: P=%d: estimated peak %dB exceeds budget %dB" p.p_procs
      p.p_est_peak p.p_budget;
  (match p.p_planned_peak_meas with
  | Some meas when meas > p.p_budget ->
      fail "redist sweep: P=%d: planned peak %dB exceeds budget %dB" p.p_procs
        meas p.p_budget
  | _ -> ());
  if p.p_naive_peak <= p.p_budget then
    fail "redist sweep: P=%d: naive peak %dB unexpectedly within budget %dB"
      p.p_procs p.p_naive_peak p.p_budget;
  (match p.p_naive_peak_meas with
  | Some meas when meas < p.p_naive_peak ->
      fail
        "redist sweep: P=%d: measured naive peak %dB below analytic bound %dB"
        p.p_procs meas p.p_naive_peak
  | _ -> ());
  match (p.p_naive_makespan, p.p_planned_makespan) with
  | Some naive_ms, Some planned_ms
    when p.p_procs >= 256 && planned_ms > naive_ms ->
      fail "redist sweep: P=%d: planned makespan %.1f above naive %.1f"
        p.p_procs planned_ms naive_ms
  | _ -> ()

let run ?(smoke = false) () =
  Printf.printf
    "\n========= redistribution: naive vs collective planner =========\n\n%!";
  let procs, budget_div =
    if smoke then ([ 16; 32 ], 2) else ([ 64; 128; 256; 512; 1024 ], 4)
  in
  let points = List.map (measure ~budget_div) procs in
  Xdp_util.Table.print
    ~title:
      (Printf.sprintf "redistflow: naive vs planned (budget = naive_peak/%d)"
         budget_div)
    ~header:
      [ "P"; "n"; "budget B"; "naive peak"; "planned peak"; "naive ms";
        "planned ms"; "plan"; "stages"; "ok" ]
    (List.map
       (fun p ->
         [
           string_of_int p.p_procs;
           string_of_int p.p_n;
           string_of_int p.p_budget;
           (match p.p_naive_peak_meas with
           | Some b -> string_of_int b
           | None -> Printf.sprintf "%d*" p.p_naive_peak);
           (match p.p_planned_peak_meas with
           | Some b -> string_of_int b
           | None -> Printf.sprintf "%d*" p.p_est_peak);
           (match p.p_naive_makespan with
           | Some ms -> Printf.sprintf "%.0f" ms
           | None -> "-");
           (match p.p_planned_makespan with
           | Some ms -> Printf.sprintf "%.0f" ms
           | None -> Printf.sprintf "%.0f*" p.p_est_makespan);
           Printf.sprintf "%s/w%d" p.p_shape p.p_window;
           string_of_int p.p_stages;
           (if p.p_identical then "identical" else "MISMATCH");
         ])
       points);
  Printf.printf
    "  (* = analytic: exact naive bound / planner estimate; not executed)\n%!";
  List.iter check points;
  let json =
    let module J = Xdp_util.Jsonw in
    J.Obj
      [
        ("schema", J.Str "xdp-bench-redist/1");
        ("smoke", J.Bool smoke);
        ("app", J.Str "redistflow");
        ("m", J.Int m);
        ("budget_div", J.Int budget_div);
        ("exec_limit", J.Int exec_limit);
        ("cost", J.Str "message_passing");
        ( "sweep",
          J.Arr
            (List.map
               (fun p ->
                 J.Obj
                   ([
                      ("procs", J.Int p.p_procs);
                      ("n", J.Int p.p_n);
                      ( "mode",
                        J.Str
                          (if p.p_procs <= exec_limit then "measured"
                           else "analytic") );
                      ("budget", J.Int p.p_budget);
                      ("naive_peak", J.Int p.p_naive_peak);
                      ( "naive_peak_measured",
                        match p.p_naive_peak_meas with
                        | Some b -> J.Int b
                        | None -> J.Null );
                      ( "naive_makespan",
                        match p.p_naive_makespan with
                        | Some ms -> J.Fixed (ms, 1)
                        | None -> J.Null );
                      ( "planned_peak_measured",
                        match p.p_planned_peak_meas with
                        | Some b -> J.Int b
                        | None -> J.Null );
                      ( "planned_makespan",
                        match p.p_planned_makespan with
                        | Some ms -> J.Fixed (ms, 1)
                        | None -> J.Null );
                      ( "peak_ratio",
                        J.Fixed
                          ( float_of_int p.p_naive_peak
                            /. float_of_int
                                 (max 1
                                    (match p.p_planned_peak_meas with
                                    | Some b -> b
                                    | None -> p.p_est_peak)),
                            3 ) );
                      ("shape", J.Str p.p_shape);
                      ("window", J.Int p.p_window);
                      ("stages", J.Int p.p_stages);
                      ("est_peak", J.Int p.p_est_peak);
                      ("est_makespan", J.Fixed (p.p_est_makespan, 1));
                      ("feasible", J.Bool p.p_feasible);
                      ("identical", J.Bool p.p_identical);
                    ]
                   @
                   match (p.p_naive_makespan, p.p_planned_makespan) with
                   | Some nms, Some pms ->
                       [ ("makespan_ratio", J.Fixed (nms /. pms, 3)) ]
                   | _ -> []))
               points) );
      ]
  in
  let oc = open_out "BENCH_redist.json" in
  Xdp_util.Jsonw.to_channel ~indent:2 oc json;
  close_out oc;
  Printf.printf "  wrote BENCH_redist.json\n%!"
