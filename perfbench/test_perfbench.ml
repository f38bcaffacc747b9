(* The benchmark's own checks: seeded manifests are reproducible, a
   tiny pass of every workload verifies against its oracle, and each
   mode prints exactly the metrics BENCHMARK.json names, with their
   units. *)

module J = Xdp_util.Jsonw

let benchmark_json =
  In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all |> Xdp_batch.Json.parse

(* (name, unit) of every metric in a BENCHMARK.json section *)
let declared section =
  match benchmark_json with
  | J.Obj top -> (
      match List.assoc section top with
      | J.Arr ms ->
          List.map
            (function
              | J.Obj f -> (
                  match (List.assoc "name" f, List.assoc "unit" f) with
                  | J.Str n, J.Str u -> (n, u)
                  | _ -> Alcotest.fail "metric without name or unit")
              | _ -> Alcotest.fail "metric is not an object")
            ms
      | _ -> Alcotest.fail (section ^ " is not an array"))
  | _ -> Alcotest.fail "BENCHMARK.json is not an object"

let test_manifest_seeded () =
  let m seed = Perfbench.Campaign_gen.manifest ~seed ~repeats:10 in
  Alcotest.(check string) "same seed, same bytes" (m 7) (m 7);
  Alcotest.(check bool) "another seed, another manifest" true (m 7 <> m 8);
  match Xdp_batch.Manifest.parse ~check:Xdp_batch.Workload.check_spec ~source:"t" (m 7) with
  | Ok jobs -> Alcotest.(check int) "24 programs x 10 fault seeds" 240 (Array.length jobs)
  | Error e -> Alcotest.fail e

let test_workload name trace () =
  let r =
    Perfbench.Bench.run ~workload:name ~seed:3 ~seconds:0.0 ~trace ~size:Perfbench.Workloads.Tiny
  in
  Alcotest.(check bool) "attempted" true (r.attempted >= 1);
  Alcotest.(check int) "verified against the oracle" 0 r.failed;
  let printed = List.map (fun (m : Perfbench.Bench.metric) -> (m.name, m.unit_)) r.metrics in
  Alcotest.(check (list (pair string string)))
    "metrics and units as declared"
    (declared (if trace then "per_layer" else "end_to_end"))
    printed;
  List.iter
    (fun (m : Perfbench.Bench.metric) ->
      if not (Float.is_finite m.value) then Alcotest.failf "%s is not finite" m.name)
    r.metrics

let () =
  let cases trace =
    List.map
      (fun w -> Alcotest.test_case (w ^ if trace then " traced" else "") `Quick (test_workload w trace))
      Perfbench.Workloads.names
  in
  Alcotest.run "perfbench"
    [
      ("manifest", [ Alcotest.test_case "seeded" `Quick test_manifest_seeded ]);
      ("workloads", cases false @ cases true);
    ]
