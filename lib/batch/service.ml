module Exec = Xdp_runtime.Exec
module Precompile = Xdp_runtime.Precompile
module J = Xdp_util.Jsonw

type summary = {
  jobs : int;
  failed : int;
  first_failure : (int * string * string) option;
  cache_hits : int;
  cache_misses : int;
  compile_seconds : float;
  wall_seconds : float;
}

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg

(* Build, stage (through the worker's cache) and run one job.  Returns
   the cache key alongside the result so the record can carry the IR
   digest. *)
let exec ~cache ~engine (s : Manifest.spec) =
  let cost = ok_or_fail (Workload.cost_of_string s.cost) in
  let w = Workload.build s in
  let key =
    Cache.digest ~cost ~fuse:Precompile.fuse_default ~scalars:[] w.Workload.prog
  in
  let staged =
    match engine with
    | `Interp -> None
    | `Compiled ->
        Some
          (Cache.find cache key ~compile:(fun () ->
               Precompile.compile ~cost ~kernels:Xdp.Kernels.default ~scalars:[]
                 w.Workload.prog))
  in
  let res =
    Exec.run ~engine ?staged ~cost ~init:w.Workload.init
      ~fault:(Workload.fault_plan s) ~net:(Workload.transport_config s)
      ~nic:w.Workload.nic ~redist_stages:w.Workload.redist_stages
      ~nprocs:s.procs w.Workload.prog
  in
  (key, res)

let record_fields (job : Manifest.job) ~engine ~outcome : (string * J.t) list =
  let s = job.spec in
  let base =
    [
      ("id", J.Int job.id);
      ("label", J.Str job.label);
      ("app", J.Str s.app);
      ("stage", J.Str s.stage);
      ("engine", J.Str engine);
      ("cost", J.Str s.cost);
    ]
  in
  match outcome with
  | Error msg -> base @ [ ("ok", J.Bool false); ("error", J.Str msg) ]
  | Ok (key, (res : Exec.result)) ->
      base
      @ [
          ("ok", J.Bool true);
          ("ir_digest", J.Str key);
          ( "stats",
            J.Obj
              (List.map
                 (fun (k, f) -> (k, f res.stats))
                 Xdp_sim.Trace.stats_fields) );
          ( "fusion",
            J.Obj
              [
                ("fused_turns", J.Int res.fusion.fused_turns);
                ("fused_statements", J.Int res.fusion.fused_statements);
              ] );
          (* digest of the gathered arrays: lets record equality stand
             in for bit-for-bit output equality in the cache-hit and
             jobs-1-vs-jobs-4 properties *)
          ( "result_digest",
            J.Str
              (Digest.to_hex
                 (Digest.string
                    (Marshal.to_string res.arrays [ Marshal.No_sharing ]))) );
        ]

let diagnose = function
  | Failure msg -> Some msg
  | Invalid_argument msg -> Some ("invalid argument: " ^ msg)
  | Exec.Deadlock msg -> Some ("deadlock: " ^ msg)
  | Exec.Xdp_misuse msg -> Some ("xdp misuse: " ^ msg)
  | Xdp_nic.Fabric.Nic_misuse msg -> Some ("nic misuse: " ^ msg)
  | Xdp_net.Transport.Link_failed msg -> Some ("link failed: " ^ msg)
  | _ -> None

let run_job ~cache ~engine:default_engine ~timings (job : Manifest.job) =
  let s = job.spec in
  let t0 = Unix.gettimeofday () in
  let outcome =
    try
      let engine =
        match s.engine with
        | None -> default_engine
        | Some e -> ok_or_fail (Exec.engine_of_string e)
      in
      Ok (engine, exec ~cache ~engine s)
    with e ->
      Error
        (match diagnose e with Some d -> d | None -> Printexc.to_string e)
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let engine, outcome =
    match outcome with
    | Ok (eng, r) -> (Exec.engine_name eng, Ok r)
    | Error msg ->
        let eng =
          match s.engine with
          | Some e -> e
          | None -> Exec.engine_name default_engine
        in
        (eng, Error msg)
  in
  let fields = record_fields job ~engine ~outcome in
  let fields =
    if timings then fields @ [ ("wall_ms", J.Fixed (wall_ms, 3)) ] else fields
  in
  let line = J.to_string ~indent:0 (J.Obj fields) in
  let diag = match outcome with Ok _ -> None | Error msg -> Some msg in
  (line, diag)

let run ?(workers = 1) ?(engine = Exec.default_engine) ?(timings = false) ~write
    (jobs : Manifest.job array) =
  let t0 = Unix.gettimeofday () in
  let njobs = Array.length jobs in
  (* one staging cache per worker slot: 0 is the inline path, 1..W the
     spawned domains — compiled closures never cross a domain *)
  let caches = Array.init (Int.max workers 1 + 1) (fun _ -> Cache.create ()) in
  let diags = Array.make njobs None in
  let sink = Sink.create ~total:njobs ~write in
  Pool.run ~workers ~njobs
    ~f:(fun ~worker i ->
      run_job ~cache:caches.(worker) ~engine ~timings jobs.(i))
    ~emit:(fun i (line, diag) ->
      diags.(i) <- diag;
      Sink.push sink ~id:i line);
  let failed =
    Array.fold_left (fun acc d -> if d = None then acc else acc + 1) 0 diags
  in
  let first_failure =
    let rec go i =
      if i >= njobs then None
      else
        match diags.(i) with
        | Some msg -> Some (jobs.(i).Manifest.id, jobs.(i).Manifest.label, msg)
        | None -> go (i + 1)
    in
    go 0
  in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 caches in
  let sumf f = Array.fold_left (fun acc c -> acc +. f c) 0.0 caches in
  {
    jobs = njobs;
    failed;
    first_failure;
    cache_hits = sum Cache.hits;
    cache_misses = sum Cache.misses;
    compile_seconds = sumf Cache.compile_seconds;
    wall_seconds = Unix.gettimeofday () -. t0;
  }
