(* xdpc — command-line driver for the XDP reproduction.

   The default command builds one of the bundled applications at a
   chosen optimization stage, optionally dumps the IL+XDP code, runs
   it on the simulated SPMD machine under a chosen cost model,
   verifies the result against the sequential reference where one
   exists, and reports statistics.

   [xdpc batch] runs a whole manifest of such jobs across Domain
   workers with a digest-keyed compiled-program cache, streaming one
   JSONL record per job (DESIGN.md §8). *)

open Cmdliner
module Manifest = Xdp_batch.Manifest
module Workload = Xdp_batch.Workload
module Service = Xdp_batch.Service

let msg_of_string f s = Result.map_error (fun e -> `Msg e) (f s)

let cost_conv =
  Arg.conv
    ( msg_of_string Workload.cost_of_string,
      fun ppf (c : Xdp_sim.Costmodel.t) -> Format.fprintf ppf "%s" c.name )

let engine_conv =
  Arg.conv
    ( msg_of_string Xdp_runtime.Exec.engine_of_string,
      fun ppf e -> Format.pp_print_string ppf (Xdp_runtime.Exec.engine_name e) )

(* --nic-reduce: "off" or a combining-tree arity >= 2.  Strict in the
   --engine style: anything else is rejected at parse time. *)
let nic_reduce_conv =
  let parse s =
    match s with
    | "off" -> Ok None
    | _ -> (
        match int_of_string_opt s with
        | Some a when a >= 2 -> Ok (Some a)
        | Some a ->
            Error
              (`Msg (Printf.sprintf "tree arity must be >= 2 (got %d)" a))
        | None ->
            Error
              (`Msg
                (Printf.sprintf
                   "expected 'off' or a tree arity >= 2 (got '%s')" s)))
  in
  Arg.conv
    ( parse,
      fun ppf -> function
        | None -> Format.fprintf ppf "off"
        | Some a -> Format.fprintf ppf "%d" a )

(* A strict string flag (--redist, --placement, --shard, --wshard):
   [check] must accept the value, which is kept as given.  Anything
   else is a Cmdliner parse error. *)
let checked_conv check =
  Arg.conv
    ( (fun s -> Result.map (fun _ -> s) (msg_of_string check s)),
      Format.pp_print_string )

(* --redist-budget: per-processor peak bytes, 0 = unbounded. *)
let redist_budget_conv =
  let parse s =
    match int_of_string_opt s with
    | Some b when b >= 0 -> Ok b
    | Some b ->
        Error
          (`Msg (Printf.sprintf "budget must be >= 0 bytes (got %d)" b))
    | None ->
        Error
          (`Msg
            (Printf.sprintf "expected a byte budget >= 0, or 0 for \
                             unbounded (got '%s')" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* --max-steps: a statement budget, a positive int. *)
let max_steps_conv =
  let parse s =
    match int_of_string_opt s with
    | Some k when k > 0 -> Ok k
    | Some k -> Error (`Msg (Printf.sprintf "must be > 0 (got %d)" k))
    | None ->
        Error (`Msg (Printf.sprintf "expected a positive integer (got '%s')" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* --nic-filter: a NIC filter program attached to every processor. *)
type nic_filter = Filt_none | Filt_count | Filt_drop_src of int

let nic_filter_conv =
  let parse s =
    match s with
    | "none" -> Ok Filt_none
    | "count" -> Ok Filt_count
    | _ -> (
        match String.index_opt s '=' with
        | Some i when String.sub s 0 i = "drop-src" -> (
            let v = String.sub s (i + 1) (String.length s - i - 1) in
            match int_of_string_opt v with
            | Some k when k >= 1 -> Ok (Filt_drop_src k)
            | _ ->
                Error
                  (`Msg
                    (Printf.sprintf
                       "drop-src takes a 1-based processor id (got '%s')" v)))
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "expected 'none', 'count' or 'drop-src=K' (got '%s')" s)))
  in
  Arg.conv
    ( parse,
      fun ppf -> function
        | Filt_none -> Format.fprintf ppf "none"
        | Filt_count -> Format.fprintf ppf "count"
        | Filt_drop_src k -> Format.fprintf ppf "drop-src=%d" k )

let filter_programs ~nprocs = function
  | Filt_none -> []
  | Filt_count ->
      (* pass-through: every directed value packet is counted and
         charged NIC ingress, nothing else changes *)
      let p =
        Xdp_nic.Prog.(make ~name:"cli-count" [ instr True Pass ])
      in
      List.init nprocs (fun pid -> (pid, p))
  | Filt_drop_src k ->
      let p =
        Xdp_nic.Prog.(
          make ~name:(Printf.sprintf "cli-drop-src%d" k)
            [ instr (eq src (lit k)) Drop ])
      in
      List.init nprocs (fun pid -> (pid, p))

(* Sequential reference for the apps that have one — a CLI concern
   (the batch service records digests instead of re-verifying). *)
let reference_of (s : Manifest.spec) =
  let seq_a ~init prog = Xdp_runtime.Seq.array (Xdp_runtime.Seq.run ~init prog) "A" in
  match s.app with
  | "vecadd" -> Some (Xdp_apps.Vecadd.expected ~n:s.n)
  | "fft3d" ->
      Some
        (seq_a ~init:Xdp_apps.Fft3d.init
           (Xdp_apps.Fft3d.sequential ~n:s.n ~nprocs:s.procs))
  | "jacobi" ->
      Some
        (seq_a ~init:Xdp_apps.Jacobi.init
           (Xdp_apps.Jacobi.build ~n:s.n ~nprocs:s.procs ~sweeps:s.sweeps
              ~stage:Xdp_apps.Jacobi.Sequential ()))
  | "jacobi2d" ->
      Some
        (seq_a ~init:Xdp_apps.Jacobi2d.init
           (Xdp_apps.Jacobi2d.build ~n:s.n ~pr:1 ~pc:1 ~sweeps:s.sweeps
              ~stage:Xdp_apps.Jacobi2d.Sequential ()))
  | "redist" ->
      (* redistribution moves ownership, never values: the expected
         tensor is the init applied to the whole index space *)
      Some (Xdp_apps.Redistflow.reference ~n:s.n ())
  | "dlstack" ->
      Some (Xdp_apps.Dlstack.reference (Workload.dlstack_config s))
  | _ -> None

let run app stage n nprocs sweeps seg misaligned cost engine dump trace gantt
    drop dup jitter fault_seed timeout nic_reduce nic_filter redist
    redist_budget placement shard wshard layers dim max_steps =
  try
    (* --nic-reduce forces the in-network reduce stage *)
    let app, stage, nic_arity =
      match (nic_reduce, app) with
      | None, _ ->
          ( Option.value app ~default:"vecadd",
            stage,
            Manifest.default_spec.nic_arity )
      | Some arity, (None | Some "reduce") -> ("reduce", "nic", arity)
      | Some _, Some app ->
          failwith
            (Printf.sprintf "--nic-reduce selects app reduce (got --app %s)"
               app)
    in
    let spec =
      {
        Manifest.default_spec with
        app;
        stage;
        n;
        procs = nprocs;
        sweeps;
        seg;
        misaligned;
        cost = cost.Xdp_sim.Costmodel.name;
        drop;
        dup;
        jitter;
        fault_seed;
        timeout;
        nic_arity;
        redist;
        redist_budget;
        placement;
        shard;
        wshard;
        layers;
        dim;
      }
    in
    let spec =
      match Workload.check_spec spec with Ok s -> s | Error e -> failwith e
    in
    let fault = Workload.fault_plan spec in
    let net = Workload.transport_config spec in
    let w = Workload.build spec in
    let nic =
      match (w.nic, nic_filter) with
      | [], f -> filter_programs ~nprocs f
      | nic, Filt_none -> nic
      | _ :: _, _ ->
          failwith
            "--nic-filter cannot combine with the in-network reduce stage \
             (each processor takes one NIC program)"
    in
    if dump then begin
      print_string (Xdp.Pp.program_to_string w.prog);
      print_string (Xdp.Match_check.report w.prog);
      List.iter (fun (_, p) -> print_string (Xdp_nic.Prog.to_string p)) nic
    end;
    if not (Xdp_net.Faultplan.is_none fault) then
      Format.printf "network: %s@." (Xdp_net.Faultplan.describe fault);
    let r =
      Xdp_runtime.Exec.run ~engine ~cost ~init:w.init
        ~trace:(trace || gantt) ?max_steps ~fault ~net ~nic
        ~redist_stages:w.redist_stages ~nprocs w.prog
    in
    Format.printf "stats: %a@." Xdp_sim.Trace.pp_stats r.stats;
    if trace then Format.printf "%a" Xdp_sim.Trace.pp r.trace;
    if gantt then begin
      print_string
        (Xdp_sim.Gantt.render ~nprocs ~makespan:r.stats.makespan
           (Xdp_sim.Trace.events r.trace));
      (* Staged redistributions show as the await-gate '.' columns
         sweeping each lane — label them so the chart reads at a
         glance. *)
      if r.stats.Xdp_sim.Trace.redist_stages > 0 then
        Printf.printf
          "     (redist: %d staged collectives; '.' columns are stage \
           gates; peak in-flight %dB)\n"
          r.stats.Xdp_sim.Trace.redist_stages
          (Xdp_sim.Trace.max_peak_inflight r.stats)
    end;
    (match reference_of spec with
    | Some expected ->
        let got = Xdp_runtime.Exec.array r w.check in
        let d = Xdp_util.Tensor.max_diff got expected in
        if d < 1e-9 then
          Format.printf "verified: %s matches sequential reference@." w.check
        else begin
          Format.printf "VERIFICATION FAILED: max diff %g on %s@." d w.check;
          exit 1
        end
    | None ->
        let acc = Xdp_runtime.Exec.array r w.check in
        let sum = ref 0.0 in
        Xdp_util.Box.iter
          (fun idx -> sum := !sum +. Xdp_util.Tensor.get acc idx)
          (Xdp_util.Tensor.full_box acc);
        Format.printf "sum(%s) = %.1f@." w.check !sum);
    0
  with e -> (
    match Xdp_batch.Service.diagnose e with
    | Some d ->
        Format.eprintf "xdpc: %s@." d;
        1
    | None -> raise e)

let app_t =
  Arg.(value & opt (some string) None & info [ "app"; "a" ] ~doc:"Application: vecadd (the default), fft3d, jacobi, jacobi2d, reduce, farm, redist, dlstack.")

let stage_t =
  Arg.(
    value & opt string ""
    & info [ "stage"; "s" ]
        ~doc:"Optimization stage / variant of the app; defaults to the app's first stage.")

let n_t = Arg.(value & opt int 16 & info [ "n" ] ~doc:"Problem size (tasks for farm).")
let procs_t = Arg.(value & opt int 4 & info [ "procs"; "p" ] ~doc:"Number of simulated processors.")
let sweeps_t = Arg.(value & opt int 4 & info [ "sweeps" ] ~doc:"Jacobi sweeps.")
let seg_t = Arg.(value & opt (some int) None & info [ "seg" ] ~doc:"FFT segment rows.")
let mis_t = Arg.(value & flag & info [ "misaligned" ] ~doc:"Distribute B CYCLIC in vecadd.")

let cost_t =
  Arg.(
    value
    & opt cost_conv Xdp_sim.Costmodel.message_passing
    & info [ "cost"; "c" ]
        ~doc:"Cost model: message_passing, shared_address, idealized, \
              nic_compute (message-passing wire with a fast in-fabric \
              compute path).")

let engine_t =
  Arg.(
    value
    & opt engine_conv Xdp_runtime.Exec.default_engine
    & info [ "engine"; "e" ]
        ~doc:
          "Execution engine: compiled (staged closures, the default) or \
           interp (the reference tree-walker).  Both produce bit-identical \
           results.  Also accepted: staged (compiled), interpreter and \
           reference (interp).  The default can also be set with \
           XDP_ENGINE, which accepts the same names and rejects anything \
           else at startup.")

let dump_t = Arg.(value & flag & info [ "dump-ir"; "d" ] ~doc:"Print the IL+XDP program.")
let trace_t = Arg.(value & flag & info [ "trace"; "t" ] ~doc:"Print the event trace.")
let gantt_t = Arg.(value & flag & info [ "gantt"; "g" ] ~doc:"Print an ASCII Gantt chart.")

let drop_t =
  Arg.(
    value & opt float 0.0
    & info [ "drop" ] ~doc:"Per-packet drop probability (0..1); enables the reliable transport.")

let dup_t =
  Arg.(
    value & opt float 0.0
    & info [ "dup" ] ~doc:"Per-packet duplication probability (0..1).")

let jitter_t =
  Arg.(
    value & opt float 0.0
    & info [ "jitter" ] ~doc:"Delivery jitter as a fraction of wire time (reorders messages).")

let fault_seed_t =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~doc:"Seed of the deterministic fault schedule.")

let timeout_t =
  Arg.(
    value & opt (some float) None
    & info [ "timeout" ] ~doc:"Retransmit timeout of the reliable transport.")

let nic_reduce_t =
  Arg.(
    value
    & opt nic_reduce_conv None
    & info [ "nic-reduce" ] ~docv:"ARITY"
        ~doc:
          "Run the in-network reduction: shorthand for $(b,--app reduce \
           --stage nic) with the combining tree's fan-in set to $(docv) \
           (an integer >= 2, or $(b,off)).  Each processor's NIC folds \
           its subtree's partial sums in-flight and the root NIC \
           multicasts the total, so only P+1 messages reach endpoints.")

let nic_filter_t =
  Arg.(
    value
    & opt nic_filter_conv Filt_none
    & info [ "nic-filter" ] ~docv:"SPEC"
        ~doc:
          "Attach a verified NIC filter program to every processor: \
           $(b,none) (default), $(b,count) (pass-through, counts and \
           prices every directed value packet at the NIC) or \
           $(b,drop-src=K) (drop packets whose source is processor K — \
           expect deadlocks when the app needed them).  Cannot combine \
           with $(b,--nic-reduce).")

let redist_t =
  Arg.(
    value
    & opt (checked_conv Workload.redist_of_string) "naive"
    & info [ "redist" ] ~docv:"STRATEGY"
        ~doc:
          "Redistribution lowering for $(b,--app redist): $(b,naive) posts \
           every point-to-point ownership transfer at once (peak in-flight \
           bytes grow with P), $(b,collectives) runs the planner of \
           DESIGN.md section 10 and lowers a staged collective schedule \
           kept within $(b,--redist-budget).  Both produce bit-identical \
           array contents.")

let redist_budget_t =
  Arg.(
    value
    & opt redist_budget_conv 0
    & info [ "redist-budget" ] ~docv:"BYTES"
        ~doc:
          "Per-processor peak in-flight byte budget for $(b,--redist \
           collectives); $(b,0) (the default) means unbounded, so the \
           planner simply minimizes estimated makespan.")

let placement_t =
  Arg.(
    value
    & opt (checked_conv Workload.placement_of_string) "naive"
    & info [ "placement" ] ~docv:"PLACEMENT"
        ~doc:
          "Layout selection for $(b,--app dlstack): $(b,naive) (fully \
           replicated data parallelism, the anchor every comparison is \
           against), $(b,hand) (classic row-sharded data parallelism with \
           a rooted-tree allreduce) or $(b,search) (the deterministic \
           enumerate-then-anneal winner under the static cost estimator, \
           DESIGN.md section 11).  All three produce bit-identical \
           results.")

let shard_t =
  Arg.(
    value & opt (checked_conv Xdp_search.Space.act_of_string) ""
    & info [ "shard" ] ~docv:"ACT"
        ~doc:
          "Dlstack activation-sharding override applied on top of the \
           $(b,naive)/$(b,hand) placements: $(b,row), $(b,col) or \
           $(b,repl).  Rejected with $(b,--placement search) — the \
           searcher owns every axis it sweeps.")

let wshard_t =
  Arg.(
    value & opt (checked_conv Xdp_search.Space.wgt_of_string) ""
    & info [ "wshard" ] ~docv:"WGT"
        ~doc:
          "Dlstack weight-sharding override, same scope as $(b,--shard): \
           $(b,shard) or $(b,repl).")

let layers_t =
  Arg.(
    value
    & opt int Manifest.default_spec.layers
    & info [ "layers"; "L" ] ~doc:"Dlstack pipeline depth (layers).")

let dim_t =
  Arg.(
    value
    & opt int Manifest.default_spec.dim
    & info [ "dim" ] ~doc:"Dlstack feature width (weight-vector length).")

let max_steps_t =
  Arg.(
    value
    & opt (some max_steps_conv) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Statement budget of the run (a positive integer; default \
           20,000,000).  A run that executes more statements stops with \
           $(b,step budget exceeded) $(docv) and exit code 1.")

let run_term =
  Term.(
    const run $ app_t $ stage_t $ n_t $ procs_t $ sweeps_t $ seg_t $ mis_t
    $ cost_t $ engine_t $ dump_t $ trace_t $ gantt_t $ drop_t $ dup_t
    $ jitter_t $ fault_seed_t $ timeout_t $ nic_reduce_t $ nic_filter_t
    $ redist_t $ redist_budget_t $ placement_t $ shard_t $ wshard_t
    $ layers_t $ dim_t $ max_steps_t)

(* ------------------------------------------------------------------ *)
(* xdpc search                                                         *)

let objective_conv =
  Arg.conv
    ( msg_of_string Xdp_search.Anneal.objective_of_string,
      fun ppf o ->
        Format.pp_print_string ppf (Xdp_search.Anneal.objective_name o) )

let search n dim layers nprocs seed rounds proposals objective =
  let module Space = Xdp_search.Space in
  let module Anneal = Xdp_search.Anneal in
  let module Estimate = Xdp_search.Estimate in
  try
    let cfg = { Space.procs = nprocs; batch = n; dim; nlayers = layers } in
    (match Space.validate_config cfg with
    | Ok () -> ()
    | Error e -> failwith e);
    let opts = { Anneal.seed; rounds; proposals; objective } in
    let t0 = Unix.gettimeofday () in
    let r = Anneal.search cfg opts in
    let dt = Unix.gettimeofday () -. t0 in
    let pr name (s : Space.summary) key =
      Format.printf "%-8s  %7d msgs  %10d bytes  est makespan %12.0f  %s@."
        name s.Space.comm.Estimate.msgs s.Space.comm.Estimate.wire_bytes
        s.Space.est_makespan key
    in
    pr "naive" r.Anneal.naive_summary (Space.key (Space.naive cfg));
    pr "hand" r.Anneal.hand_summary (Space.key (Space.hand cfg));
    pr "searched" r.Anneal.best_summary (Space.key r.Anneal.best);
    Format.printf
      "evaluated %d candidates (%d enumeration seeds) in %.3fs (%.0f \
       candidates/s)@."
      r.Anneal.evaluated r.Anneal.seeded dt
      (float_of_int r.Anneal.evaluated /. Float.max 1e-9 dt);
    print_string (Space.describe cfg r.Anneal.best);
    0
  with Failure msg | Invalid_argument msg ->
    Format.eprintf "xdpc search: %s@." msg;
    1

let search_seed_t =
  Arg.(
    value
    & opt int Xdp_search.Anneal.default_options.seed
    & info [ "seed" ] ~doc:"Seed of the deterministic annealing schedule.")

let rounds_t =
  Arg.(
    value
    & opt int Xdp_search.Anneal.default_options.rounds
    & info [ "rounds" ] ~doc:"Annealing rounds after the enumeration phase.")

let proposals_t =
  Arg.(
    value
    & opt int Xdp_search.Anneal.default_options.proposals
    & info [ "proposals" ] ~doc:"Candidate mutations scored per round.")

let objective_t =
  Arg.(
    value
    & opt objective_conv Xdp_search.Anneal.default_options.objective
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:
          "Search objective: $(b,bytes) (endpoint wire bytes, ties broken \
           on message count) or $(b,makespan) (the coarse alpha-beta + \
           compute estimate).")

let search_cmd =
  let doc = "search dlstack placements with the static cost estimator" in
  Cmd.v
    (Cmd.info "search" ~doc
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Enumerates every uniform GSPMD-style placement of the \
              dlstack training step over every mesh factorization, then \
              anneals from the best seed — scoring each candidate with \
              the static estimator of DESIGN.md section 11 in \
              microseconds, never building or executing a program.  The \
              winner, the naive anchor and the hand placement are \
              reported with their estimated message/byte totals; run the \
              winner with $(b,xdpc -a dlstack --placement search).";
           `P
             "The search is a pure function of the configuration and \
              options: estimated costs drive every decision and random \
              draws replay from a keyed PRNG stream.";
         ])
    Term.(
      const search $ n_t $ dim_t $ layers_t $ procs_t $ search_seed_t
      $ rounds_t $ proposals_t $ objective_t)

(* ------------------------------------------------------------------ *)
(* xdpc batch                                                          *)

let batch manifest workers out engine timings quiet =
  match Manifest.parse_file ~check:Workload.check_spec manifest with
  | Error msg ->
      Format.eprintf "xdpc batch: %s@." msg;
      2
  | exception Sys_error msg ->
      Format.eprintf "xdpc batch: %s@." msg;
      2
  | Ok jobs -> (
      let oc, close =
        match out with
        | None -> (stdout, fun () -> flush stdout)
        | Some path ->
            let oc = open_out path in
            (oc, fun () -> close_out oc)
      in
      let s =
        Fun.protect ~finally:close (fun () ->
            Service.run ~workers ?engine ~timings ~write:(output_string oc)
              jobs)
      in
      if not quiet then
        Format.eprintf
          "batch: %d jobs (%d failed), %d workers, cache %d hits / %d misses, \
           staging %.3fs, wall %.3fs (%.1f runs/s)@."
          s.jobs s.failed workers s.cache_hits s.cache_misses
          s.compile_seconds s.wall_seconds
          (float_of_int s.jobs /. Float.max 1e-9 s.wall_seconds);
      match s.first_failure with
      | None -> 0
      | Some (id, label, diag) ->
          Format.eprintf "xdpc batch: job %d (%s) failed: %s@." id label diag;
          if s.failed > 1 then
            Format.eprintf "xdpc batch: %d of %d jobs failed@." s.failed s.jobs;
          1)

let manifest_t =
  Arg.(
    required
    & opt (some file) None
    & info [ "manifest"; "m" ] ~docv:"FILE"
        ~doc:"Job manifest: a JSON object with defaults/jobs, a JSON array, \
              or JSONL (one job object per line).  Fields expand over arrays \
              and $(b,{from,count,step}) ranges.")

let workers_t =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Domain workers executing jobs in parallel.  Output is \
              byte-identical for every value of $(docv).")

let out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Write the JSONL records to $(docv) instead of stdout.")

let batch_engine_t =
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine"; "e" ]
        ~doc:"Engine for jobs without their own $(b,engine) field (default: \
              the process default, see XDP_ENGINE).")

let timings_t =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:"Add a wall_ms field to every record.  Forfeits byte-identical \
              output across worker counts.")

let quiet_t =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the stderr summary line.")

let batch_cmd =
  let doc = "run a manifest of jobs across Domain workers with a staging cache" in
  Cmd.v
    (Cmd.info "batch" ~doc
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Expands the manifest into a job list, executes it across \
              $(b,--jobs) OCaml Domains (each simulated run stays \
              deterministic and single-threaded) and streams one JSON record \
              per job to stdout in canonical job-id order — the byte stream \
              does not depend on the worker count.  Staging is deduped by an \
              IR-digest compiled-program cache per worker.";
           `P
             "Exit status: 0 on success, 1 if any job fails (the first \
              failing job id and diagnostic go to stderr), 2 on a malformed \
              manifest.";
         ])
    Term.(
      const batch $ manifest_t $ workers_t $ out_t $ batch_engine_t
      $ timings_t $ quiet_t)

let cmd =
  let doc = "run bundled XDP applications on the simulated SPMD machine" in
  Cmd.group ~default:run_term (Cmd.info "xdpc" ~doc) [ batch_cmd; search_cmd ]

let () = exit (Cmd.eval' cmd)
