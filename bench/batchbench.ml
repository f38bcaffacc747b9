(* BATCH: domain-parallel run driver + compiled-program cache
   (DESIGN.md §8).

   Expands a campaign manifest (a few hundred jobs: fault-seed sweeps
   and size ladders over the bundled apps), runs it through the batch
   service at 1/2/4/8 Domain workers, and reports end-to-end
   throughput (runs per wall-clock second), the staging-cache hit
   rate, and the staging wall time the cache saved.  Every multi-worker
   JSONL stream is checked byte-for-byte against the single-worker
   stream — the service's ordering guarantee — and the run fails on
   any divergence or failed job.

   BENCH_batch.json records the machine's core count: on a single-core runner
   the multi-worker rows measure scheduling overhead, not speedup, so
   the >= 3x-at-4-workers tripwire only arms where at least 4 cores
   are available (the CI runners).  The cache hit-rate floor and the
   byte-identity check arm everywhere, smoke or not. *)

module Manifest = Xdp_batch.Manifest
module Service = Xdp_batch.Service
module J = Xdp_util.Jsonw

let specs ~smoke : Manifest.spec list =
  let d = Manifest.default_spec in
  let seeds base n = List.init n (fun i -> { base with Manifest.fault_seed = i + 1 }) in
  if smoke then
    List.concat
      [
        seeds { d with app = "vecadd"; n = 12; procs = 4 } 6;
        seeds { d with app = "jacobi"; stage = "halo"; n = 12; sweeps = 2 } 6;
        seeds
          { d with app = "fft3d"; stage = "pipelined"; n = 4;
            drop = 0.15; dup = 0.05; jitter = 0.2 }
          6;
        [
          { d with app = "reduce"; stage = "partial"; n = 16 };
          { d with app = "farm"; stage = "dynamic"; n = 8 };
          { d with app = "jacobi2d"; n = 8; sweeps = 2 };
        ];
      ]
  else
    List.concat
      [
        (* fault-seed sweeps: one staging per line, hundreds of runs *)
        seeds
          { d with app = "fft3d"; stage = "pipelined"; n = 8;
            drop = 0.15; dup = 0.05; jitter = 0.2 }
          60;
        seeds { d with app = "jacobi2d"; n = 32; sweeps = 3 } 40;
        seeds { d with app = "jacobi"; stage = "halo"; n = 64; sweeps = 4 } 40;
        seeds { d with app = "vecadd"; stage = "bound"; n = 256 } 30;
        seeds { d with app = "farm"; stage = "dynamic"; n = 24 } 30;
        (* a size ladder: distinct programs, so real cache misses too *)
        List.map (fun n -> { d with Manifest.app = "jacobi2d"; n; sweeps = 2 })
          [ 8; 12; 16; 20; 24; 28; 32; 40 ];
        List.map (fun n -> { d with Manifest.app = "reduce"; stage = "partial"; n })
          [ 16; 32; 64 ];
      ]

(* One campaign at [workers] Domain workers: its summary and a digest
   of the whole JSONL stream. *)
let run_at ~jobs workers =
  let buf = Buffer.create (64 * 1024) in
  (* explicitly the staged engine: this bench measures the staging
     cache, so it must not silently degrade to the interpreter when
     XDP_ENGINE=interp is the session default (the CI engine matrix) *)
  let s =
    Service.run ~workers ~engine:`Compiled ~write:(Buffer.add_string buf) jobs
  in
  (workers, s, Digest.string (Buffer.contents buf))

let rate (s : Service.summary) =
  float_of_int s.jobs /. Float.max 1e-9 s.wall_seconds

let hit_rate (s : Service.summary) =
  float_of_int s.cache_hits
  /. Float.max 1.0 (float_of_int (s.cache_hits + s.cache_misses))

let run ?(smoke = false) () =
  Printf.printf
    "\n============ BATCH: domain-parallel driver + staging cache ============\n\n%!";
  let jobs = Manifest.jobs_of_specs (specs ~smoke) in
  let njobs = Array.length jobs in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  %d jobs, %d recommended domains\n\n%!" njobs cores;
  let runs = List.map (run_at ~jobs) [ 1; 2; 4; 8 ] in
  let _, base, base_stream = List.hd runs in
  let speedup s = rate s /. Float.max 1e-9 (rate base) in
  let rows =
    List.map
      (fun (w, (s : Service.summary), stream) ->
        Runs.row (Printf.sprintf "workers=%d" w)
          ~config:[ ("workers", J.Int w) ]
          ~wall_s:s.wall_seconds ~identical:(stream = base_stream)
          [
            ("runs_per_s", J.Fixed (rate s, 1));
            ("speedup", J.Fixed (speedup s, 3));
            ("cache_hits", J.Int s.cache_hits);
            ("cache_misses", J.Int s.cache_misses);
            ("hit_rate", J.Fixed (hit_rate s, 4));
            ("staging_s", J.Fixed (s.compile_seconds, 6));
            ("failed", J.Int s.failed);
          ])
      runs
  in
  Runs.report ~bench:"batch" ~smoke
    ~title:"campaign throughput vs Domain workers"
    ~config:[ ("jobs", J.Int njobs); ("cores", J.Int cores) ]
    rows;
  (* staging saved: every cache hit is one compile the campaign did
     not pay; price it at the single-worker mean cost per miss *)
  let per_compile =
    base.compile_seconds /. Float.max 1.0 (float_of_int base.cache_misses)
  in
  Printf.printf
    "\n  staging: %d of %d runs hit the cache at 1 worker — %.1f ms of \
     staging paid, ~%.1f ms saved vs compile-per-run\n"
    base.cache_hits njobs
    (1000.0 *. base.compile_seconds)
    (1000.0 *. per_compile *. float_of_int base.cache_hits);
  let s4 =
    List.fold_left
      (fun acc (w, s, _) -> if w = 4 then speedup s else acc)
      0.0 runs
  in
  Runs.check ~bench:"batch" rows
    [
      ( List.for_all (fun (_, (s : Service.summary), _) -> s.failed = 0) runs,
        "a job failed (see the JSONL error records)" );
      ( List.for_all (fun (_, _, stream) -> stream = base_stream) runs,
        "JSONL streams differ across worker counts — the ordering guarantee \
         broke" );
      ( hit_rate base >= 0.5,
        Printf.sprintf
          "staging-cache hit rate %.0f%% < 50%% on a sweep-shaped campaign — \
           the cache key is over-splitting"
          (100.0 *. hit_rate base) );
      ( smoke || cores < 4 || s4 >= 3.0,
        Printf.sprintf
          "%.2fx throughput at 4 workers (floor 3x on a >= 4-core machine, %d \
           cores here)"
          s4 cores );
    ]
