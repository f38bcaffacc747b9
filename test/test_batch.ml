(* The batch execution service (DESIGN.md §8): manifest parsing and
   expansion, the ordered sink, the digest-keyed staging cache, and
   the service's two load-bearing guarantees —

   - a cache-hit run is bit-identical to a fresh-staged run, across
     cost models, engines and fault plans (qcheck property);
   - the JSONL stream is byte-identical at --jobs 1 and --jobs 4
     (qcheck property over random campaigns).

   Plus the fusion-blocker accounting invariant the vecadd satellite
   introduced: with fusion on, every statement is either fusable or
   carries a concrete blocking reason. *)

module Manifest = Xdp_batch.Manifest
module Workload = Xdp_batch.Workload
module Service = Xdp_batch.Service
module Cache = Xdp_batch.Cache
module Sink = Xdp_batch.Sink
module Json = Xdp_batch.Json
module Jsonw = Xdp_util.Jsonw
module Exec = Xdp_runtime.Exec
module Precompile = Xdp_runtime.Precompile
module G = QCheck.Gen

let parse_ok ?check text =
  match Manifest.parse ?check ~source:"t" text with
  | Ok jobs -> jobs
  | Error e -> Alcotest.failf "expected parse to succeed, got: %s" e

let parse_err ?check text =
  match Manifest.parse ?check ~source:"t" text with
  | Ok _ -> Alcotest.fail "expected parse to fail"
  | Error e -> e

(* ---- manifest expansion ---- *)

let test_manifest_expansion () =
  let jobs =
    parse_ok
      {|{"defaults": {"n": 8, "procs": 2},
         "jobs": [{"app": "vecadd", "stage": ["naive", "bound"],
                   "fault_seed": {"from": 1, "count": 3}}]}|}
  in
  Alcotest.(check int) "2 stages x 3 seeds" 6 (Array.length jobs);
  (* later fields vary fastest: seeds cycle within a stage *)
  Alcotest.(check (list string))
    "expansion order: stage-major, seed-minor"
    [ "naive:1"; "naive:2"; "naive:3"; "bound:1"; "bound:2"; "bound:3" ]
    (Array.to_list
       (Array.map
          (fun (j : Manifest.job) ->
            Printf.sprintf "%s:%d" j.spec.stage j.spec.fault_seed)
          jobs));
  Array.iteri
    (fun i (j : Manifest.job) ->
      Alcotest.(check int) "canonical ids" i j.id;
      Alcotest.(check int) "defaults applied" 8 j.spec.n;
      Alcotest.(check int) "defaults applied" 2 j.spec.procs)
    jobs

let test_manifest_jsonl () =
  let jobs =
    parse_ok
      "{\"app\": \"vecadd\", \"n\": 8}\n\n{\"app\": \"reduce\", \"n\": [16, 32]}\n"
  in
  Alcotest.(check int) "1 + 2 jobs" 3 (Array.length jobs);
  Alcotest.(check string) "line 1" "vecadd" jobs.(0).spec.app;
  Alcotest.(check int) "line 3 expands" 32 jobs.(2).spec.n

let test_manifest_errors () =
  let has needle hay =
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" hay needle)
      true
      (let ln = String.length needle in
       let lh = String.length hay in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0)
  in
  has "jobs[0]" (parse_err {|{"jobs": [{"app": "vecadd", "frobnicate": 1}]}|});
  has "frobnicate" (parse_err {|{"jobs": [{"app": "vecadd", "frobnicate": 1}]}|});
  has "line 2" (parse_err "{\"app\": \n");
  has "'app' is required" (parse_err {|{"jobs": [{"n": 8}]}|});
  has "outside [0,1]" (parse_err {|{"jobs": [{"app": "vecadd", "drop": 1.5}]}|});
  has "must be >= 1" (parse_err {|{"jobs": [{"app": "vecadd", "procs": 0}]}|});
  has "unknown schema"
    (parse_err {|{"schema": "nope/9", "jobs": [{"app": "vecadd"}]}|});
  has "unknown app"
    (parse_err ~check:Workload.check_spec {|{"jobs": [{"app": "quux"}]}|});
  has "unknown stage"
    (parse_err ~check:Workload.check_spec
       {|{"jobs": [{"app": "vecadd", "stage": "warp"}]}|})

(* A repeated key is an error in every manifest object: a job, the
   defaults, a JSONL line, a range and the top level. *)
let test_manifest_duplicates () =
  let err = Alcotest.(check string) in
  err "job" "t: jobs[0]: duplicate field 'dim'"
    (parse_err {|{"jobs": [{"app": "dlstack", "dim": 8, "dim": 6}]}|});
  err "defaults" "t: defaults: duplicate field 'dim'"
    (parse_err
       {|{"defaults": {"dim": 8, "dim": 6}, "jobs": [{"app": "dlstack"}]}|});
  err "jsonl line" "t: line 2: duplicate field 'n'"
    (parse_err "{\"app\": \"vecadd\"}\n{\"app\": \"vecadd\", \"n\": 8, \"n\": 4}\n");
  err "range" "t: jobs[0]: field 'n': duplicate field 'from'"
    (parse_err
       {|{"jobs": [{"app": "vecadd", "n": {"from": 4, "from": 8, "count": 2}}]}|});
  err "top level" "t: duplicate field 'jobs'"
    (parse_err {|{"jobs": [{"app": "vecadd"}], "jobs": []}|})

(* Transport settings are rejected by [check_spec] itself, so the CLI
   (which builds its spec directly) rejects them whether or not the
   run has faults; through a manifest the message keeps its job
   position, whether the value came from the job or the defaults. *)
let test_manifest_transport () =
  let err = Alcotest.(check (result reject string)) in
  err "job timeout" (Error "field 'timeout': must be > 0")
    (Workload.check_spec
       { Manifest.default_spec with app = "fft3d"; timeout = Some 0.0 });
  let defaulted =
    parse_ok {|{"defaults": {"max_retries": -1}, "jobs": [{"app": "vecadd"}]}|}
  in
  err "defaults max_retries" (Error "field 'max_retries': must be >= 0")
    (Workload.check_spec defaulted.(0).spec);
  let text = Alcotest.(check string) in
  text "manifest job" "t: jobs[0]: field 'timeout': must be > 0"
    (parse_err ~check:Workload.check_spec
       {|{"jobs": [{"app": "vecadd", "timeout": 0}]}|});
  text "manifest defaults" "t: jobs[0]: field 'max_retries': must be >= 0"
    (parse_err ~check:Workload.check_spec
       {|{"defaults": {"max_retries": -1}, "jobs": [{"app": "vecadd"}]}|})

(* The dlstack placement checks [check_spec] runs at parse time, with
   their exact text, and the searched program a checked spec builds. *)
let test_manifest_dlstack () =
  let err = Alcotest.(check string) in
  err "search rejects overrides"
    "t: jobs[0]: dlstack: shard/wshard overrides apply only to the naive \
     and hand placements"
    (parse_err ~check:Workload.check_spec
       {|{"jobs": [{"app": "dlstack", "placement": "search", "shard": "row"}]}|});
  err "batch must divide"
    "t: jobs[0]: dlstack: batch 30 must be a multiple of procs 4"
    (parse_err ~check:Workload.check_spec
       {|{"jobs": [{"app": "dlstack", "n": 30, "procs": 4}]}|});
  err "unknown placement"
    "t: jobs[0]: unknown placement 'bogus' (accepted: naive, hand, search)"
    (parse_err ~check:Workload.check_spec
       {|{"jobs": [{"app": "dlstack", "placement": "bogus"}]}|});
  let jobs =
    parse_ok ~check:Workload.check_spec
      {|{"jobs": [{"app": "dlstack", "n": 32, "procs": 4, "dim": 8,
                   "placement": "search"}]}|}
  in
  let s = jobs.(0).spec in
  let cfg = Workload.dlstack_config s in
  let module Anneal = Xdp_search.Anneal in
  Alcotest.(check string)
    "build runs the default search"
    (Xdp.Pp.program_to_string
       (Xdp_apps.Dlstack.build cfg
          (Anneal.search cfg Anneal.default_options).Anneal.best))
    (Xdp.Pp.program_to_string (Workload.build s).prog)

let test_manifest_canonicalization () =
  let jobs =
    parse_ok ~check:Workload.check_spec
      {|{"jobs": [{"app": "jacobi", "stage": "auto", "cost": "mp", "engine": "staged"}]}|}
  in
  let s = jobs.(0).spec in
  Alcotest.(check string) "stage alias canonicalized" "auto-halo" s.stage;
  Alcotest.(check string) "cost alias canonicalized" "message_passing" s.cost;
  Alcotest.(check (option string)) "engine alias canonicalized"
    (Some "compiled") s.engine;
  let defaulted =
    parse_ok ~check:Workload.check_spec {|{"jobs": [{"app": "fft3d"}]}|}
  in
  Alcotest.(check string) "empty stage takes the app default" "baseline"
    defaulted.(0).spec.stage

let test_manifest_nic_arity () =
  (* nic_arity is a sweepable axis; the label carries it only for the
     in-network reduce stage *)
  let jobs =
    parse_ok ~check:Workload.check_spec
      {|{"jobs": [{"app": "reduce", "stage": "nic", "procs": 8,
                   "nic_arity": [2, 4]}]}|}
  in
  Alcotest.(check int) "arity axis expands" 2 (Array.length jobs);
  Alcotest.(check int) "first arity" 2 jobs.(0).spec.nic_arity;
  Alcotest.(check int) "second arity" 4 jobs.(1).spec.nic_arity;
  Array.iter
    (fun (j : Manifest.job) ->
      let suffix = Printf.sprintf "arity=%d" j.spec.nic_arity in
      let l = j.label in
      let ls = String.length l and ss = String.length suffix in
      Alcotest.(check bool)
        (Printf.sprintf "label %S ends with %S" l suffix)
        true
        (ls >= ss && String.sub l (ls - ss) ss = suffix);
      (* the built workload really attaches one program per processor *)
      let w = Workload.build j.spec in
      Alcotest.(check int) "one NIC program per processor" j.spec.procs
        (List.length w.nic))
    jobs;
  (* other stages neither label nor attach *)
  let partial =
    parse_ok ~check:Workload.check_spec
      {|{"jobs": [{"app": "reduce", "stage": "partial", "nic_arity": 3}]}|}
  in
  Alcotest.(check bool) "partial label has no arity" true
    (not
       (String.length partial.(0).label >= 6
       && String.sub partial.(0).label (String.length partial.(0).label - 7) 7
          = "arity=3"));
  Alcotest.(check int) "partial attaches nothing" 0
    (List.length (Workload.build partial.(0).spec).nic);
  let bad =
    parse_err ~check:Workload.check_spec
      {|{"jobs": [{"app": "reduce", "stage": "nic", "nic_arity": 1}]}|}
  in
  Alcotest.(check bool) "arity < 2 rejected with the field named" true
    (let needle = "nic_arity" in
     let ln = String.length needle and lh = String.length bad in
     let rec go i = i + ln <= lh && (String.sub bad i ln = needle || go (i + 1)) in
     go 0)

(* ---- the ordered sink ---- *)

let test_sink_ordering () =
  let buf = Buffer.create 64 in
  let sink = Sink.create ~total:5 ~write:(Buffer.add_string buf) in
  List.iter
    (fun id -> Sink.push sink ~id (string_of_int id))
    [ 3; 1; 4; 0; 2 ];
  Alcotest.(check int) "all flushed" 5 (Sink.flushed sink);
  Alcotest.(check string) "canonical order regardless of push order"
    "0\n1\n2\n3\n4\n" (Buffer.contents buf);
  Alcotest.check_raises "duplicate id rejected"
    (Invalid_argument "Sink.push: duplicate id 2") (fun () ->
      Sink.push sink ~id:2 "again")

(* ---- json writer/parser round trip ---- *)

let test_json_roundtrip () =
  let v =
    Jsonw.Obj
      [
        ("s", Jsonw.Str "a\"b\\c\n\t\x01");
        ("i", Jsonw.Int (-42));
        ("f", Jsonw.Float 1.5);
        ("b", Jsonw.Bool true);
        ("z", Jsonw.Null);
        ("a", Jsonw.Arr [ Jsonw.Int 1; Jsonw.Str "x"; Jsonw.Arr [] ]);
        ("o", Jsonw.Obj [ ("k", Jsonw.Int 0) ]);
      ]
  in
  let compact = Jsonw.to_string v in
  let pretty = Jsonw.to_string ~indent:2 v in
  Alcotest.(check bool) "compact is one line" false
    (String.contains compact '\n');
  Alcotest.(check bool) "round trip, compact" true (Json.parse compact = v);
  Alcotest.(check bool) "round trip, indented" true (Json.parse pretty = v);
  (match Json.parse_result "{\"a\": 1,\n  \"b\": }" with
  | Error e ->
      Alcotest.(check bool) ("position in " ^ e) true
        (String.length e >= 6 && String.sub e 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected a parse error")

(* ---- hardened string escaping: control chars, UTF-8, junk bytes ---- *)

let test_escape_hardening () =
  let esc = Xdp_util.Jsonw.escape in
  Alcotest.(check string) "C0 and DEL escape to \\u"
    "\\u0000\\u0001\\u001f\\u007f"
    (esc "\x00\x01\x1f\x7f");
  Alcotest.(check string) "named escapes preferred" "a\\\"b\\\\c\\n\\t\\r"
    (esc "a\"b\\c\n\t\r");
  Alcotest.(check string) "valid UTF-8 passes verbatim" "caf\xc3\xa9 \xe2\x82\xac"
    (esc "caf\xc3\xa9 \xe2\x82\xac");
  Alcotest.(check string) "invalid byte replaced by U+FFFD" "x\xef\xbf\xbdy"
    (esc "x\xffy");
  Alcotest.(check string) "truncated sequence replaced" "ab\xef\xbf\xbd"
    (esc "ab\xc3");
  (* continuation byte with no lead *)
  Alcotest.(check string) "stray continuation replaced" "\xef\xbf\xbdz"
    (esc "\x80z")

(* For ANY byte string: the emitted JSON parses (with the batch
   manifest parser), parsing is idempotent, and strings that were
   ASCII or valid UTF-8 round-trip byte-for-byte. *)
let prop_escape_roundtrip =
  QCheck.Test.make ~name:"escape round-trips against the batch parser"
    ~count:300 QCheck.string (fun s ->
      let quoted x = Jsonw.to_string (Jsonw.Str x) in
      match Json.parse_result (quoted s) with
      | Error e -> QCheck.Test.fail_reportf "emitted JSON unparseable: %s" e
      | Ok (Jsonw.Str s') ->
          (* fixpoint: a parsed-back string re-escapes identically... *)
          if quoted s' <> quoted s then
            QCheck.Test.fail_reportf "escape not a fixpoint for %S" s;
          (* ...and ASCII input survives exactly *)
          if String.for_all (fun c -> Char.code c < 0x80) s && s' <> s then
            QCheck.Test.fail_reportf "ASCII string mangled: %S <> %S" s' s;
          true
      | Ok _ -> QCheck.Test.fail_reportf "parsed to a non-string for %S" s)

let prop_escape_utf8_exact =
  (* valid UTF-8 (BMP scalars, as the parser's \u decoder is BMP-only)
     round-trips byte-for-byte *)
  QCheck.Test.make ~name:"valid UTF-8 round-trips exactly" ~count:200
    QCheck.(list (int_range 0x20 0xFFFF))
    (fun codes ->
      let codes =
        List.filter (fun u -> u < 0xD800 || u > 0xDFFF) codes
      in
      let b = Buffer.create 64 in
      List.iter (fun u -> Buffer.add_utf_8_uchar b (Uchar.of_int u)) codes;
      let s = Buffer.contents b in
      match Json.parse_result (Jsonw.to_string (Jsonw.Str s)) with
      | Ok (Jsonw.Str s') -> s' = s
      | _ -> false)

(* ---- fusion blockers: full accounting, and vecadd's answer ---- *)

let compile prog =
  Precompile.compile ~cost:Xdp_sim.Costmodel.message_passing
    ~kernels:Xdp.Kernels.default ~scalars:[] prog

let test_fusion_blockers () =
  (* every statement is fusable or carries a blocking reason, on every
     catalogued app/stage *)
  List.iter
    (fun app ->
      List.iter
        (fun stage ->
          let w =
            Workload.build
              { Manifest.default_spec with app; stage; n = 8; procs = 2 }
          in
          let fs = Precompile.fusion_stats (compile w.prog) in
          let blocked =
            List.fold_left (fun acc (_, n) -> acc + n) 0 fs.fs_blockers
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: fusable + blocked = statements" app stage)
            fs.fs_statements (fs.fs_fusable + blocked);
          List.iter
            (fun (reason, n) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: blocker %s has positive count" app
                   stage reason)
                true (n > 0))
            fs.fs_blockers)
        (Workload.stages_of app))
    Workload.known_apps;
  (* the original question: why does misaligned naive vecadd never
     fuse?  Because its statements are transfers — and the stats now
     say so explicitly *)
  let w =
    Workload.build
      {
        Manifest.default_spec with
        app = "vecadd";
        stage = "naive";
        n = 8;
        procs = 2;
        misaligned = true;
      }
  in
  let fs = Precompile.fusion_stats (compile w.prog) in
  Alcotest.(check bool) "vecadd naive: transfer blockers recorded" true
    (List.mem_assoc "transfer" fs.fs_blockers)

(* ---- service basics: records, failures, exit diagnostics ---- *)

let run_service ?(workers = 1) ?engine specs =
  let buf = Buffer.create 4096 in
  let summary =
    Service.run ~workers ?engine ~write:(Buffer.add_string buf)
      (Manifest.jobs_of_specs specs)
  in
  (summary, Buffer.contents buf)

let test_service_records () =
  let d = Manifest.default_spec in
  let summary, out =
    (* explicit engine: the cache-count assertions below only hold on
       the staged engine, whatever XDP_ENGINE made the session default *)
    run_service ~engine:`Compiled
      [
        { d with app = "vecadd"; n = 8; procs = 2 };
        { d with app = "vecadd"; n = 8; procs = 2; fault_seed = 2 };
        { d with app = "reduce"; stage = "partial"; n = 16 };
      ]
  in
  Alcotest.(check int) "3 jobs" 3 summary.jobs;
  Alcotest.(check int) "none failed" 0 summary.failed;
  Alcotest.(check bool) "no first failure" true (summary.first_failure = None);
  (* identical compile inputs share one staging *)
  Alcotest.(check int) "two distinct programs staged" 2 summary.cache_misses;
  Alcotest.(check int) "the seed sweep hit the cache" 1 summary.cache_hits;
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "one JSONL record per job" 3 (List.length lines);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Jsonw.Obj kvs ->
          Alcotest.(check bool) "id field" true
            (List.assoc "id" kvs = Jsonw.Int i);
          Alcotest.(check bool) "ok field" true
            (List.assoc "ok" kvs = Jsonw.Bool true)
      | _ -> Alcotest.fail "record is not an object")
    lines

let test_service_failure () =
  let d = Manifest.default_spec in
  let summary, out =
    run_service
      [
        { d with app = "vecadd"; n = 8; procs = 2 };
        {
          d with
          app = "vecadd";
          n = 8;
          procs = 2;
          drop = 0.9;
          max_retries = Some 2;
        };
      ]
  in
  Alcotest.(check int) "one failed" 1 summary.failed;
  (match summary.first_failure with
  | Some (1, _, diag) ->
      Alcotest.(check bool) "diagnostic names the link failure" true
        (String.length diag > 0)
  | other ->
      Alcotest.failf "first_failure should be job 1, got %s"
        (match other with None -> "None" | Some (i, _, _) -> string_of_int i));
  (* the failed job still has a record *)
  Alcotest.(check int) "2 records" 2
    (List.length (String.split_on_char '\n' (String.trim out)))

(* One mapping from abort exceptions to diagnostics, shared by batch
   records and [xdpc run]; anything else is not a run diagnosis. *)
let test_service_diagnose () =
  List.iter
    (fun (e, want) ->
      Alcotest.(check (option string)) want (Some want) (Service.diagnose e))
    [
      (Failure "boom", "boom");
      (Invalid_argument "n < 1", "invalid argument: n < 1");
      (Exec.Deadlock "P1 waits", "deadlock: P1 waits");
      ( Exec.Xdp_misuse "step budget exceeded (10)",
        "xdp misuse: step budget exceeded (10)" );
      (Xdp_nic.Fabric.Nic_misuse "no program", "nic misuse: no program");
      (Xdp_net.Transport.Link_failed "P1->P2", "link failed: P1->P2");
    ];
  Alcotest.(check (option string)) "other exceptions" None
    (Service.diagnose Not_found)

(* ---- stats golden: the "stats" object of every record ----

   A digest over the raw "stats" bytes of a fixed campaign covering a
   plain, a faulty, an in-network, a planned-redistribution and a
   searched-placement job.  Only the stats are digested: they are
   identical across engines, while "fusion" is not, so the golden
   holds under XDP_ENGINE=interp too. *)

let stats_object line =
  let key = {|"stats":{|} in
  let kl = String.length key and ll = String.length line in
  let rec find i =
    if i + kl > ll then Alcotest.failf "no stats object in %s" line
    else if String.sub line i kl = key then i
    else find (i + 1)
  in
  let start = find 0 in
  String.sub line start (String.index_from line start '}' - start + 1)

let test_stats_golden () =
  let d = Manifest.default_spec in
  let summary, out =
    run_service
      [
        { d with app = "vecadd"; n = 8; procs = 2 };
        {
          d with
          app = "fft3d";
          stage = "pipelined";
          n = 4;
          drop = 0.15;
          dup = 0.05;
          jitter = 0.2;
          fault_seed = 3;
        };
        { d with app = "reduce"; stage = "nic"; n = 32; procs = 8 };
        {
          d with
          app = "redist";
          redist = "collectives";
          redist_budget = 200;
          n = 16;
          procs = 8;
        };
        { d with app = "dlstack"; placement = "search"; n = 16; procs = 4 };
      ]
  in
  Alcotest.(check int) "none failed" 0 summary.failed;
  let stats =
    List.map stats_object (String.split_on_char '\n' (String.trim out))
  in
  Alcotest.(check string) "stats digest" "42c84f7ea900ed5b3ff9ab358f4329d0"
    (Digest.to_hex (Digest.string (String.concat "\n" stats)))

(* ---- property: cache-hit run bit-identical to fresh-staged ---- *)

type pcfg = {
  spec : Manifest.spec;
  cost : Xdp_sim.Costmodel.t;
}

let gen_pcfg =
  G.(
    let* app, stage =
      oneofl
        [
          ("vecadd", "naive"); ("vecadd", "bound"); ("jacobi", "halo");
          ("jacobi", "naive"); ("reduce", "partial"); ("farm", "dynamic");
          ("fft3d", "pipelined"); ("jacobi2d", "halo");
        ]
    in
    let* procs = oneofl [ 2; 4 ] in
    let* mult = int_range 1 3 in
    let* misaligned = bool in
    let* cost =
      oneofl
        Xdp_sim.Costmodel.[ message_passing; shared_address; idealized ]
    in
    let* faulty = bool in
    let* fault_seed = int_range 1 99 in
    let* drop = if faulty then float_range 0.05 0.3 else return 0.0 in
    let* dup = if faulty then float_range 0.0 0.1 else return 0.0 in
    let* jitter = if faulty then float_range 0.0 0.4 else return 0.0 in
    (* fft3d wants a power-of-two problem size *)
    let n = if app = "fft3d" then 1 lsl (1 + mult) else 4 * procs * mult in
    return
      {
        spec =
          {
            Manifest.default_spec with
            app;
            stage;
            n;
            procs;
            sweeps = 2;
            misaligned;
            cost = cost.Xdp_sim.Costmodel.name;
            drop;
            dup;
            jitter;
            fault_seed;
          };
        cost;
      })

let print_pcfg c = Manifest.label_of_spec c.spec

let run_with ~staged ~cost (c : pcfg) w =
  let s = c.spec in
  let fault =
    if s.drop = 0.0 && s.dup = 0.0 && s.jitter = 0.0 then Xdp_net.Faultplan.none
    else
      Xdp_net.Faultplan.make ~seed:s.fault_seed ~drop:s.drop ~dup:s.dup
        ~jitter:s.jitter ()
  in
  Exec.run ~engine:`Compiled ?staged ~cost ~init:w.Workload.init ~fault
    ~nprocs:s.procs w.Workload.prog

let results_identical (a : Exec.result) (b : Exec.result) =
  a.stats = b.stats && a.fusion = b.fusion
  && List.length a.arrays = List.length b.arrays
  && List.for_all
       (fun (name, t) ->
         Xdp_util.Tensor.equal ~eps:0.0 t (Exec.array b name))
       a.arrays

let prop_cache_hit_identical =
  QCheck.Test.make ~name:"cache-hit run bit-identical to fresh-staged run"
    ~count:40
    (QCheck.make ~print:print_pcfg gen_pcfg)
    (fun c ->
      let w = Workload.build c.spec in
      let cache = Cache.create () in
      let key =
        Cache.digest ~cost:c.cost ~fuse:Precompile.fuse_default ~scalars:[]
          w.prog
      in
      let compile () =
        Precompile.compile ~cost:c.cost ~kernels:Xdp.Kernels.default
          ~scalars:[] w.prog
      in
      let fresh = run_with ~staged:(Some (compile ())) ~cost:c.cost c w in
      let first = Cache.find cache key ~compile in
      let _warm = run_with ~staged:(Some first) ~cost:c.cost c w in
      (* second lookup must hit, and its (reused, already-run) cprog
         must still reproduce the fresh run bit for bit *)
      let hit =
        Cache.find cache key ~compile:(fun () ->
            QCheck.Test.fail_report "second lookup missed the cache")
      in
      let cached = run_with ~staged:(Some hit) ~cost:c.cost c w in
      if Cache.hits cache <> 1 || Cache.misses cache <> 1 then
        QCheck.Test.fail_reportf "hit/miss counts off: %d/%d"
          (Cache.hits cache) (Cache.misses cache);
      if not (results_identical fresh cached) then
        QCheck.Test.fail_reportf "cache-hit run diverged on %s"
          (print_pcfg c);
      true)

(* ---- property: batch output byte-identical at 1 and 4 workers ---- *)

let prop_workers_deterministic =
  QCheck.Test.make ~name:"batch JSONL byte-identical --jobs 1 vs --jobs 4"
    ~count:8
    (QCheck.make
       ~print:(fun cs -> String.concat "; " (List.map print_pcfg cs))
       G.(list_size (int_range 6 14) gen_pcfg))
    (fun cs ->
      let specs = List.map (fun c -> c.spec) cs in
      let _, out1 = run_service ~workers:1 specs in
      let _, out4 = run_service ~workers:4 specs in
      if out1 <> out4 then
        QCheck.Test.fail_report
          "JSONL streams differ between 1 and 4 workers";
      true)

let () =
  Alcotest.run "batch"
    [
      ( "manifest",
        [
          Alcotest.test_case "expansion" `Quick test_manifest_expansion;
          Alcotest.test_case "jsonl" `Quick test_manifest_jsonl;
          Alcotest.test_case "errors" `Quick test_manifest_errors;
          Alcotest.test_case "duplicate keys" `Quick test_manifest_duplicates;
          Alcotest.test_case "transport settings" `Quick
            test_manifest_transport;
          Alcotest.test_case "dlstack checks" `Quick test_manifest_dlstack;
          Alcotest.test_case "canonicalization" `Quick
            test_manifest_canonicalization;
          Alcotest.test_case "nic_arity axis" `Quick test_manifest_nic_arity;
        ] );
      ("sink", [ Alcotest.test_case "ordering" `Quick test_sink_ordering ]);
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escape hardening" `Quick test_escape_hardening;
          QCheck_alcotest.to_alcotest prop_escape_roundtrip;
          QCheck_alcotest.to_alcotest prop_escape_utf8_exact;
        ] );
      ( "fusion",
        [ Alcotest.test_case "blockers" `Quick test_fusion_blockers ] );
      ( "service",
        [
          Alcotest.test_case "records" `Quick test_service_records;
          Alcotest.test_case "failure" `Quick test_service_failure;
          Alcotest.test_case "diagnose" `Quick test_service_diagnose;
          Alcotest.test_case "stats golden" `Quick test_stats_golden;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cache_hit_identical;
          QCheck_alcotest.to_alcotest prop_workers_deterministic;
        ] );
    ]
