(* The measurement loop and the metrics it reports.

   The untraced run ([trace = false]) times whole iterations and
   reports the end-to-end metrics.  The traced run reports the
   per-layer metrics: it alternates untraced and traced iterations (so
   the difference of their medians is the tracing overhead), runs the
   reference interpreter once as the yardstick, and for the campaign
   replays every job through the layer calls. *)

type metric = { name : string; unit_ : string; value : float }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** sample counts behind the percentiles *)
  tracer : Span.t option;
}

let median = function [] -> 0.0 | xs -> Xdp_util.Stats.percentile 50.0 xs

(* A run's end-to-end timings are the 10th percentile of its
   iterations.  On a shared two-core host, phases of several seconds in
   which every iteration runs 30-60% slower come and go; in one campaign
   run they raised the median iteration 30% above neighbouring runs and
   the 10th percentile 7%.  A change to the program slows every
   iteration, and moves the low percentile as much as the median. *)
let typical = function [] -> 0.0 | xs -> Xdp_util.Stats.percentile 10.0 xs

(* The highest percentile with at least ten samples beyond it; with
   fewer than 21 samples no such percentile lies above the median, and
   the median is reported.  Returns (value, percentile, samples). *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 21 then (median xs, 50, n) else (a.(n - 11), 100 * (n - 10) / n, n)

let passes = [ "shift-halo"; "lower"; "elim-comm"; "localize"; "hoist-guard"; "fuse"; "bind"; "simplify" ]
let span_layers = [ "bench"; "apps"; "core"; "runtime"; "batch" ]
let m name unit_ value = { name; unit_; value }

let run ~workload ~seed ~seconds ~trace ~size =
  let w = Workloads.make workload ~seed ~size in
  (* the heap peak counts from here: the oracle, computed by [make], is
     not the program under measurement *)
  Workloads.reset_peak ();
  let attempted = ref 0 and failed = ref 0 and first = ref None in
  (* One iteration, with its outcome counted: a raised iteration or a
     simulated outcome that differs from the first one is a failure. *)
  let step tr =
    (* every iteration starts from a fully collected heap, so one
       iteration's garbage is not collected on the next one's clock *)
    Gc.full_major ();
    match Span.wrap tr ~layer:"bench" "iteration" (fun () -> w.iterate tr) with
    | s ->
        let drift =
          match !first with
          | None ->
              first := Some s.sim;
              false
          | Some r -> r <> s.sim
        in
        attempted := !attempted + s.jobs;
        failed := !failed + if drift then s.jobs else s.failed;
        Some s
    | exception e ->
        prerr_endline (workload ^ ": iteration raised " ^ Printexc.to_string e);
        incr attempted;
        incr failed;
        None
  in
  (* [f ()] at least once, then until [seconds] have passed *)
  let loop f =
    let deadline = Span.now () +. seconds in
    let rec go acc =
      let acc = f () @ acc in
      if Span.now () < deadline then go acc else List.rev acc
    in
    go []
  in
  if not trace then begin
    ignore (step None);
    let samples = loop (fun () -> Option.to_list (step None)) in
    let walls = List.map (fun (s : Workloads.sample) -> s.wall_s) samples in
    let jobs = match samples with s :: _ -> s.jobs | [] -> 0 in
    (* a job's wall is its typical wall over the iterations; the median
       and tail are taken over jobs *)
    let job_ms =
      let per_iter = List.map (fun (s : Workloads.sample) -> Array.of_list s.job_ms) samples in
      List.init jobs (fun i -> typical (List.map (fun a -> a.(i)) per_iter))
    in
    let job_tail, jp, jn = tail job_ms in
    let sim : Workloads.sim =
      Option.value !first ~default:{ makespan = 0.0; messages = 0; wire_bytes = 0; peak_inflight = 0 }
    in
    {
      attempted = !attempted;
      failed = !failed;
      tracer = None;
      notes =
        [
          Printf.sprintf "%d iterations of %d jobs" (List.length samples) jobs;
          Printf.sprintf "job_tail_ms is p%d of %d jobs" jp jn;
        ];
      metrics =
        [
          m "setup_s" "s" (typical (List.map (fun (s : Workloads.sample) -> s.setup_s) samples));
          m "wall_s" "s" (typical walls);
          m "jobs_per_s" "1/s" (float_of_int jobs /. typical walls);
          m "job_ms_p50" "ms" (median job_ms);
          m "job_tail_ms" "ms" job_tail;
          m "heap_peak_mb" "MB" (Workloads.vmhwm_mb ());
          m "makespan" "cycles" sim.makespan;
          m "messages" "count" (float_of_int sim.messages);
          m "wire_bytes" "bytes" (float_of_int sim.wire_bytes);
          m "peak_inflight_bytes" "bytes" (float_of_int sim.peak_inflight);
        ];
    }
  end
  else begin
    let t = Span.create () in
    let interp_s, interp_mb = w.yardstick () in
    ignore (step None);
    let k = ref 0 in
    let pairs =
      loop (fun () ->
          let u = step None in
          Span.set_iter t !k;
          let v = step (Some t) in
          incr k;
          match (u, v) with Some u, Some v -> [ (u, v) ] | _ -> [])
    in
    let replay_counts =
      match w.replay with
      | None -> []
      | Some replay ->
          Span.set_iter t (-1);
          let counts, jobs, bad =
            Span.wrap (Some t) ~layer:"bench" "replay" (fun () -> replay t)
          in
          attempted := !attempted + jobs;
          failed := !failed + bad;
          counts
    in
    let spans = Span.self_times t in
    (* median over iterations of the per-iteration sum of [f] over the
       spans [keep] selects; iterations without such spans are skipped *)
    let per_iter keep f =
      let h = Hashtbl.create 16 in
      List.iter
        (fun ((s : Span.span), self) ->
          if keep s then
            Hashtbl.replace h s.iter
              (f s self +. Option.value ~default:0.0 (Hashtbl.find_opt h s.iter)))
        spans;
      median (Hashtbl.fold (fun _ v acc -> v :: acc) h [])
    in
    let span_s ?(iters = fun _ -> true) name =
      per_iter (fun s -> s.name = name && iters s.iter) (fun s _ -> Span.dur s)
    in
    let traced = List.map snd pairs in
    let counts =
      let names = match traced with s :: _ -> List.map fst s.counts | [] -> [] in
      List.map
        (fun k -> (k, median (List.map (fun (s : Workloads.sample) -> List.assoc k s.counts) traced)))
        names
      @ replay_counts
    in
    let count k = Option.value ~default:0.0 (List.assoc_opt k counts) in
    let run_s = span_s "exec.run" in
    let wall l = median (List.map (fun (s : Workloads.sample) -> s.wall_s) l) in
    (* the iteration tail, from the untraced iterations: on a shared
       machine it mostly measures the host's interference, so it is
       reported here, without a bound, rather than end to end *)
    let wall_tail, wp, wn = tail (List.map (fun ((s : Workloads.sample), _) -> s.wall_s) pairs) in
    let metrics =
      [ m "core.optimize_s" "s" (span_s "core.optimize") ]
      @ List.map (fun p -> m ("core.pass." ^ p ^ "_s") "s" (span_s ("core.pass." ^ p))) passes
      @ [
          m "core.check_s" "s" (per_iter (fun s -> s.name = "core.optimize") (fun _ self -> self));
          m "core.ir_stmts_in" "count" (count "core.ir_stmts_in");
          m "core.ir_stmts_out" "count" (count "core.ir_stmts_out");
          m "apps.build_s" "s" (span_s "apps.build");
          m "apps.ir_stmts" "count" (count "apps.ir_stmts");
          m "precompile.compile_s" "s" (span_s "precompile.compile");
          m "precompile.fusable_statements" "count" (count "precompile.fusable_statements");
          m "precompile.fused_units" "count" (count "precompile.fused_units");
          m "precompile.spec_loops" "count" (count "precompile.spec_loops");
          m "precompile.batched_loops" "count" (count "precompile.batched_loops");
          m "exec.run_s" "s" run_s;
          m "exec.statements" "count" (count "exec.statements");
          m "exec.stmts_per_s" "1/s" (if run_s > 0.0 then count "exec.statements" /. run_s else 0.0);
          m "exec.fused_turns" "count" (count "exec.fused_turns");
          m "exec.fused_statements" "count" (count "exec.fused_statements");
          m "exec.minor_words" "words" (count "exec.minor_words");
          m "exec.major_words" "words" (count "exec.major_words");
          m "exec.interp_run_s" "s" interp_s;
          m "exec.interp_heap_mb" "MB" interp_mb;
          m "exec.compiled_over_interp" "ratio" (span_s w.compiled_span /. interp_s);
          m "symtab.descriptor_visits" "count" (count "symtab.descriptor_visits");
          m "symtab.peak_elements" "count" (count "symtab.peak_elements");
          m "sim.ownership_transfers" "count" (count "sim.ownership_transfers");
          m "sim.guard_evals" "count" (count "sim.guard_evals");
          m "sim.guard_hits" "count" (count "sim.guard_hits");
          m "sim.idle_fraction" "ratio" (count "sim.idle_fraction");
          m "sim.busy_max" "cycles" (count "sim.busy_max");
          m "sim.unmatched" "count" (count "sim.unmatched");
          m "net.retransmits" "count" (count "net.retransmits");
          m "net.acks" "count" (count "net.acks");
          m "net.dup_suppressed" "count" (count "net.dup_suppressed");
          m "net.packets_dropped" "count" (count "net.packets_dropped");
          m "net.overhead_bytes" "bytes" (count "net.overhead_bytes");
          m "nic.packets" "count" (count "nic.packets");
          m "nic.aggregated" "count" (count "nic.aggregated");
          m "nic.msgs_saved" "count" (count "nic.msgs_saved");
          m "nic.bytes" "bytes" (count "nic.bytes");
          m "search.placement_s" "s" (span_s "search.placement");
          m "batch.parse_s" "s" (span_s "batch.parse");
          m "batch.build_s" "s" (span_s "batch.build");
          m "batch.digest_s" "s" (span_s "batch.digest");
          m "batch.compile_s" "s" (span_s ~iters:(fun i -> i < 0) "precompile.compile");
          m "batch.cache_hits" "count" (count "batch.cache_hits");
          m "batch.cache_misses" "count" (count "batch.cache_misses");
          m "batch.staging_s" "s" (count "batch.staging_s");
        ]
      @ List.map
          (fun l ->
            m ("layer." ^ l ^ ".self_s") "s"
              (per_iter (fun s -> s.layer = l && s.iter >= 0) (fun _ self -> self)))
          span_layers
      @ [
          m "wall_tail_s" "s" wall_tail;
          m "trace.overhead_s" "s" (wall traced -. wall (List.map fst pairs));
          m "trace.spans" "count"
            (float_of_int (List.length (List.filter (fun ((s : Span.span), _) -> s.iter >= 0) spans))
            /. float_of_int (max 1 (List.length pairs)));
          m "fail_ratio" "ratio" (float_of_int !failed /. float_of_int (max 1 !attempted));
        ]
    in
    {
      attempted = !attempted;
      failed = !failed;
      tracer = Some t;
      notes =
        [
          Printf.sprintf "%d traced and %d untraced iterations" (List.length pairs) (List.length pairs);
          Printf.sprintf "wall_tail_s is p%d of %d untraced iterations" wp wn;
        ];
      metrics;
    }
  end
