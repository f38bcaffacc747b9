(* The three benchmark workloads.  Each one runs its oracle when it is
   made, before anything is timed, and then offers [iterate]: one whole
   iteration (set-up, execute, gather) through the public entry points
   of each layer, checked against the oracle after the clock stops. *)

module Exec = Xdp_runtime.Exec
module Precompile = Xdp_runtime.Precompile
module Seq = Xdp_runtime.Seq
module Tensor = Xdp_util.Tensor
module Prng = Xdp_util.Prng
module Trace = Xdp_sim.Trace
module Symtab = Xdp_symtab.Symtab
module Manifest = Xdp_batch.Manifest
module Workload = Xdp_batch.Workload
module Service = Xdp_batch.Service
module Cache = Xdp_batch.Cache
module Json = Xdp_batch.Json
module J = Xdp_util.Jsonw

type size = Full | Tiny

(* The simulated outcome of an iteration.  It is exact: every
   iteration of a run must reproduce the first one. *)
type sim = { makespan : float; messages : int; wire_bytes : int; peak_inflight : int }

type sample = {
  setup_s : float;  (** time to a runnable program *)
  wall_s : float;  (** set-up + execute + gather *)
  jobs : int;  (** runs this iteration completed *)
  failed : int;  (** runs that raised or disagreed with the oracle *)
  job_ms : float list;  (** wall of each run, in job order *)
  sim : sim;
  counts : (string * float) list;  (** per-layer numbers; traced iterations only *)
}

type t = {
  iterate : Span.t option -> sample;
  yardstick : unit -> float * float;
      (** the reference interpreter on the same work: (seconds, process
          VmHWM in MB right after it).  Call before any compiled run. *)
  compiled_span : string;  (** the span [yardstick] is compared with *)
  replay : (Span.t -> (string * float) list * int * int) option;
      (** per-job replay through the layer calls (campaign only):
          summed per-layer counts, jobs replayed and jobs failed *)
}

let cost = Xdp_sim.Costmodel.message_passing
let kernels = Xdp.Kernels.default

let vmhwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let l = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else go ()
      in
      go ())

(* Collect the heap and restart the process's VmHWM from its current
   resident size, so that a later [vmhwm_mb] measures what ran after
   this call and not the oracle before it. *)
let reset_peak () =
  Gc.compact ();
  match open_out "/proc/self/clear_refs" with
  | oc -> (
      try
        output_string oc "5";
        close_out oc
      with Sys_error e ->
        close_out_noerr oc;
        prerr_endline ("perfbench: heap peak not reset: " ^ e))
  | exception Sys_error e -> prerr_endline ("perfbench: heap peak not reset: " ^ e)

let sim_of_stats (st : Trace.stats) =
  {
    makespan = st.makespan;
    messages = st.messages;
    wire_bytes = st.bytes + st.net_overhead_bytes;
    peak_inflight = Trace.max_peak_inflight st;
  }

let compile_counts cp =
  let f = Precompile.fusion_stats cp in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("precompile.fusable_statements", f.fs_fusable);
      ("precompile.fused_units", f.fs_fused_units);
      ("precompile.spec_loops", f.fs_spec_loops);
      ("precompile.batched_loops", f.fs_batched_loops);
    ]

let run_counts (res : Exec.result) =
  let st = res.stats in
  let symtabs f = Array.fold_left (fun acc s -> acc + f s) 0 res.symtabs in
  ("sim.idle_fraction", Trace.idle_fraction st)
  :: ("sim.busy_max", Array.fold_left Float.max 0.0 st.busy)
  :: List.map
       (fun (k, v) -> (k, float_of_int v))
       [
         ("exec.statements", st.statements);
         ("exec.fused_turns", res.fusion.fused_turns);
         ("exec.fused_statements", res.fusion.fused_statements);
         ("symtab.descriptor_visits", symtabs Symtab.descriptor_visits);
         ("symtab.peak_elements", symtabs Symtab.peak_elements);
         ("sim.ownership_transfers", st.ownership_transfers);
         ("sim.guard_evals", st.guard_evals);
         ("sim.guard_hits", st.guard_hits);
         ("sim.unmatched", st.unmatched_sends + st.unmatched_recvs);
         ("net.retransmits", st.retransmits);
         ("net.acks", st.acks);
         ("net.dup_suppressed", st.dup_suppressed);
         ("net.packets_dropped", st.packets_dropped);
         ("net.overhead_bytes", st.net_overhead_bytes);
         ("nic.packets", st.nic_packets);
         ("nic.aggregated", st.nic_aggregated);
         ("nic.msgs_saved", st.nic_msgs_saved);
         ("nic.bytes", st.nic_bytes);
       ]

(* [f ()] and the words it allocated in the minor and major heaps *)
let gc_words f =
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).major_words in
  let r = f () in
  ( r,
    [
      ("exec.minor_words", Gc.minor_words () -. minor0);
      ("exec.major_words", (Gc.quick_stat ()).major_words -. major0);
    ] )

let ir_stmts (p : Xdp.Ir.program) = float_of_int (Xdp.Ir.size p.body)

(* --- single-program workloads: stencil and alltoall --- *)

(* [setup tr] builds the program to stage, plus its set-up counts. *)
let single ~nprocs ~init ~expected ~setup =
  let compile prog = Precompile.compile ~cost ~kernels ~scalars:[] prog in
  let verdict res = if Tensor.equal ~eps:0.0 (Exec.array res "A") expected then 0 else 1 in
  let iterate tr =
    let t0 = Span.now () in
    let prog, setup_counts = setup tr in
    let cp = Span.wrap tr ~layer:"runtime" "precompile.compile" (fun () -> compile prog) in
    let t1 = Span.now () in
    let res, words =
      gc_words (fun () ->
          Span.wrap tr ~layer:"runtime" "exec.run" (fun () ->
              Exec.run ~engine:`Compiled ~staged:cp ~cost ~init ~nprocs prog))
    in
    let t2 = Span.now () in
    let counts = if Option.is_none tr then [] else setup_counts @ compile_counts cp @ run_counts res @ words in
    {
      setup_s = t1 -. t0;
      wall_s = t2 -. t0;
      jobs = 1;
      failed = verdict res;
      job_ms = [ (t2 -. t0) *. 1000.0 ];
      sim = sim_of_stats res.stats;
      counts;
    }
  in
  let yardstick () =
    let prog, _ = setup None in
    let t0 = Span.now () in
    let res = Exec.run ~engine:`Interp ~cost ~init ~nprocs prog in
    let dt = Span.now () -. t0 in
    if verdict res <> 0 then failwith "interpreter disagrees with the oracle";
    (dt, vmhwm_mb ())
  in
  { iterate; yardstick; compiled_span = "exec.run"; replay = None }

(* Sequential 1-D Jacobi through the whole compiler pipeline.  The
   oracle is the sequential interpreter on the uncompiled program. *)
let stencil ~seed ~size =
  let n, nprocs, sweeps = match size with Full -> (65536, 16, 8) | Tiny -> (64, 4, 2) in
  let phase = Prng.float (Prng.of_seed seed) *. 6.0 in
  let init name idx =
    match (name, idx) with
    | "A", [ i ] -> Float.abs (sin (phase +. (0.7 *. float_of_int i))) *. 10.0
    | _ -> 0.0
  in
  let build () = Xdp_apps.Jacobi.build ~n ~nprocs ~sweeps ~stage:Sequential () in
  let expected = Seq.array (Seq.run ~init (build ())) "A" in
  let setup tr =
    let seqp = Span.wrap tr ~layer:"apps" "apps.build" build in
    let r =
      Span.wrap tr ~layer:"core" "core.optimize" (fun () ->
          (* each pass is timed from the previous observation point *)
          let observe =
            Option.map
              (fun t ->
                let last = ref (Span.now ()) in
                fun name _ ->
                  let now = Span.now () in
                  Span.add t ~layer:"core" ~t0:!last ~t1:now ("core.pass." ^ name);
                  last := now)
              tr
          in
          Xdp.Compile.optimize ?observe ~nprocs seqp)
    in
    if r.balance <> Xdp.Match_check.Balanced then failwith "stencil: sends and receives unbalanced";
    let counts =
      [
        ("apps.ir_stmts", ir_stmts seqp);
        ("core.ir_stmts_in", ir_stmts seqp);
        ("core.ir_stmts_out", ir_stmts r.compiled);
      ]
    in
    (r.compiled, counts)
  in
  single ~nprocs ~init ~expected ~setup

(* The naive all-to-all ownership redistribution.  The oracle is
   Redistflow.reference shifted by the seed's offset (redistribution
   moves values, it never computes them). *)
let alltoall ~seed ~size =
  let n, nprocs = match size with Full -> (128, 64) | Tiny -> (16, 4) in
  let offset = float_of_int (Prng.int (Prng.of_seed seed) 1_000_000) in
  let init name idx = Xdp_apps.Redistflow.init name idx +. offset in
  let expected = Xdp_apps.Redistflow.reference ~n () in
  Tensor.map_box expected (Tensor.full_box expected) (fun _ v -> v +. offset);
  let setup tr =
    let p =
      Span.wrap tr ~layer:"apps" "apps.build" (fun () ->
          Xdp_apps.Redistflow.build ~n ~nprocs ~strategy:`Naive ())
    in
    (p, [ ("apps.ir_stmts", ir_stmts p) ])
  in
  single ~nprocs ~init ~expected ~setup

(* --- campaign: many small programs through the batch service --- *)

(* One worker: with two Domain workers on a two-core machine, every
   minor collection stops both domains and the claim order varies, and
   campaign wall time spread 10-15% between runs against 3-8% here. *)
let workers = 1

let field k = function J.Obj l -> List.assoc_opt k l | _ -> None

let num = function
  | Some (J.Int i) -> float_of_int i
  | Some (J.Float f | J.Fixed (f, _)) -> f
  | _ -> 0.0

(* A record without the fields that legitimately differ between the
   compiled run and the interpreter oracle: the engine name, the wall
   clock and the fusion counters, which are zero under the
   interpreter. *)
let strip = function
  | J.Obj l ->
      J.Obj (List.filter (fun (k, _) -> not (List.mem k [ "engine"; "wall_ms"; "fusion" ])) l)
  | j -> j

let parse_manifest text =
  match Manifest.parse ~check:Workload.check_spec ~source:"campaign" text with
  | Ok jobs -> jobs
  | Error e -> failwith e

let run_service ~engine jobs =
  let lines = ref [] in
  let summary =
    Service.run ~workers ~engine ~timings:true ~write:(fun l -> lines := l :: !lines) jobs
  in
  (summary, Array.of_list (List.rev_map Json.parse !lines))

(* The fault plan and transport a job runs under, as the service
   derives them from its spec.  A copy of the derivation inside
   [Xdp_batch.Service.exec], which does not export it: if the two
   drift, the replay disagrees with its oracle records. *)
let fault_of (s : Manifest.spec) =
  if s.drop = 0.0 && s.dup = 0.0 && s.jitter = 0.0 then Xdp_net.Faultplan.none
  else Xdp_net.Faultplan.make ~seed:s.fault_seed ~drop:s.drop ~dup:s.dup ~jitter:s.jitter ()

let net_of (s : Manifest.spec) =
  let c = Xdp_net.Transport.default_config in
  let c = match s.timeout with None -> c | Some timeout -> { c with timeout } in
  match s.max_retries with None -> c | Some max_retries -> { c with max_retries }

(* Sum per-layer counts over jobs; the idle fraction is averaged and
   the busiest processor is the maximum. *)
let combine (per_job : (string * float) list list) =
  match per_job with
  | [] -> []
  | first :: _ ->
      let njobs = float_of_int (List.length per_job) in
      List.map
        (fun (k, _) ->
          let vs = List.map (fun c -> List.assoc k c) per_job in
          match k with
          | "sim.busy_max" -> (k, List.fold_left Float.max 0.0 vs)
          | "sim.idle_fraction" -> (k, List.fold_left ( +. ) 0.0 vs /. njobs)
          | _ -> (k, List.fold_left ( +. ) 0.0 vs))
        first

let campaign ~seed ~size =
  let repeats = match size with Full -> 10 | Tiny -> 1 in
  let manifest () = Campaign_gen.manifest ~seed ~repeats in
  let jobs0 = parse_manifest (manifest ()) in
  let t0 = Span.now () in
  let _, oracle = run_service ~engine:`Interp jobs0 in
  let interp_s = Span.now () -. t0 in
  let interp_mb = vmhwm_mb () in
  let oracle = Array.map strip oracle in
  let iterate tr =
    let t0 = Span.now () in
    let text = Span.wrap tr ~layer:"bench" "campaign.generate" manifest in
    let jobs = Span.wrap tr ~layer:"batch" "batch.parse" (fun () -> parse_manifest text) in
    let t1 = Span.now () in
    let summary, records =
      Span.wrap tr ~layer:"batch" "batch.service" (fun () -> run_service ~engine:`Compiled jobs)
    in
    let t2 = Span.now () in
    let bad i r = strip r <> oracle.(i) || field "ok" r <> Some (J.Bool true) in
    let failed = ref 0 in
    Array.iteri (fun i r -> if bad i r then incr failed) records;
    let stat k r = num (Option.bind (field "stats" r) (field k)) in
    let sum k = Array.fold_left (fun acc r -> acc +. stat k r) 0.0 records in
    let isum k = int_of_float (sum k) in
    let peak = Array.fold_left (fun acc r -> Float.max acc (stat "peak_inflight_bytes" r)) 0.0 records in
    {
      setup_s = t1 -. t0;
      wall_s = t2 -. t0;
      jobs = Array.length records;
      failed = !failed;
      job_ms = Array.to_list (Array.map (fun r -> num (field "wall_ms" r)) records);
      sim =
        {
          makespan = sum "makespan";
          messages = isum "messages";
          wire_bytes = isum "bytes" + isum "net_overhead_bytes";
          peak_inflight = int_of_float peak;
        };
      counts =
        (if Option.is_none tr then []
         else
           [
             ("batch.cache_hits", float_of_int summary.cache_hits);
             ("batch.cache_misses", float_of_int summary.cache_misses);
             ("batch.staging_s", summary.compile_seconds);
           ]);
    }
  in
  (* One job at a time through the calls the service makes, each in
     its own span, checked against the oracle record. *)
  let replay t =
    let tr = Some t in
    let failed = ref 0 in
    let per_job =
      Array.to_list jobs0
      |> List.mapi (fun i (job : Manifest.job) ->
             let s = job.spec in
             try
               let cost = Result.get_ok (Workload.cost_of_string s.cost) in
               if s.app = "dlstack" && s.placement = "search" then
                 ignore
                   (Span.wrap tr ~layer:"search" "search.placement" (fun () ->
                        Workload.dlstack_placement s));
               let w = Span.wrap tr ~layer:"batch" "batch.build" (fun () -> Workload.build s) in
               ignore
                 (Span.wrap tr ~layer:"batch" "batch.digest" (fun () ->
                      Cache.digest ~cost ~fuse:Precompile.fuse_default ~scalars:[] w.prog));
               let cp =
                 Span.wrap tr ~layer:"runtime" "precompile.compile" (fun () ->
                     Precompile.compile ~cost ~kernels ~scalars:[] w.prog)
               in
               let res, words =
                 gc_words (fun () ->
                     Span.wrap tr ~layer:"runtime" "exec.run" (fun () ->
                         Exec.run ~engine:`Compiled ~staged:cp ~cost ~init:w.init ~fault:(fault_of s)
                           ~net:(net_of s) ~nic:w.nic ~redist_stages:w.redist_stages
                           ~nprocs:s.procs w.prog))
               in
               let st = res.stats in
               (* compared as the record renders them *)
               let agrees k v =
                 Option.map J.to_string (Option.bind (field "stats" oracle.(i)) (field k))
                 = Some (J.to_string v)
               in
               if
                 not
                   (agrees "makespan" (J.Float st.makespan)
                   && agrees "messages" (J.Int st.messages)
                   && agrees "bytes" (J.Int st.bytes))
               then incr failed;
               Some ((("apps.ir_stmts", ir_stmts w.prog) :: compile_counts cp) @ run_counts res @ words)
             with e ->
               prerr_endline ("replay: " ^ job.label ^ ": " ^ Printexc.to_string e);
               incr failed;
               None)
      |> List.filter_map Fun.id
    in
    (combine per_job, Array.length jobs0, !failed)
  in
  let yardstick () = (interp_s, interp_mb) in
  { iterate; yardstick; compiled_span = "batch.service"; replay = Some replay }

let names = [ "stencil"; "alltoall"; "campaign" ]

let make name ~seed ~size =
  match name with
  | "stencil" -> stencil ~seed ~size
  | "alltoall" -> alltoall ~seed ~size
  | "campaign" -> campaign ~seed ~size
  | _ -> invalid_arg ("unknown workload " ^ name ^ " (known: " ^ String.concat ", " names ^ ")")
