(* Command-line driver: run one workload for a number of seconds and
   print every metric by name and unit; the last line of standard
   output is the result as one JSON object.  Exits 1 when any run
   raised or disagreed with its oracle, 2 on bad arguments. *)

open Perfbench
module J = Xdp_util.Jsonw

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let trace_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Workloads.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: traced run, per-layer metrics");
      ( "--trace-out",
        Arg.Set_string trace_out,
        " Chrome trace-event file of the traced run (default perfbench/out/trace-WORKLOAD-SEED.json)" );
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Workloads.names && (!trace = 0 || !trace = 1)) then begin
    Arg.usage (Arg.align spec) usage;
    exit 2
  end;
  let r =
    Bench.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~size:Workloads.Full
  in
  Option.iter
    (fun t ->
      let path =
        if !trace_out <> "" then !trace_out
        else begin
          if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
          Printf.sprintf "perfbench/out/trace-%s-%d.json" !workload !seed
        end
      in
      Span.write t path;
      Printf.printf "trace written to %s\n" path)
    r.tracer;
  Printf.printf "%s seed=%d: %d attempted, %d failed\n" !workload !seed r.attempted r.failed;
  List.iter print_endline r.notes;
  List.iter
    (fun (m : Bench.metric) -> Printf.printf "  %-32s %18.9g %s\n" m.name m.value m.unit_)
    r.metrics;
  let metric (m : Bench.metric) =
    (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ])
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (r.failed = 0));
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed);
            ("metrics", J.Obj (List.map metric r.metrics));
          ]));
  exit (if r.failed = 0 then 0 else 1)
