(* Cost model, trace and Gantt tests. *)

open Xdp_sim

let test_presets () =
  Alcotest.(check bool) "mp has expensive alpha" true
    (Costmodel.message_passing.alpha > 100.0);
  Alcotest.(check bool) "shared address cheaper startup" true
    (Costmodel.shared_address.time_send_init
    < Costmodel.message_passing.time_send_init);
  Alcotest.(check (float 0.0)) "idealized free" 0.0 Costmodel.idealized.alpha

let test_message_math () =
  let cm = Costmodel.message_passing in
  Alcotest.(check int) "bytes" (10 * 8 + 16)
    (Costmodel.message_bytes cm ~elems:10);
  Alcotest.(check (float 1e-9)) "transfer"
    (cm.alpha +. (cm.beta *. 96.0))
    (Costmodel.transfer_time cm ~bytes:96)

let test_with_network () =
  let cm = Costmodel.with_network Costmodel.message_passing ~alpha:1.0 ~beta:2.0 in
  Alcotest.(check (float 0.0)) "alpha" 1.0 cm.alpha;
  Alcotest.(check (float 0.0)) "beta" 2.0 cm.beta;
  Alcotest.(check (float 0.0)) "other fields kept"
    Costmodel.message_passing.time_flop cm.time_flop

let test_trace_toggle () =
  let t = Trace.create ~enabled:false in
  Trace.emit t (Trace.Note { time = 0.0; pid = 0; msg = "x" });
  Alcotest.(check int) "disabled records nothing" 0
    (List.length (Trace.events t));
  let t = Trace.create ~enabled:true in
  Trace.emit t (Trace.Note { time = 0.0; pid = 0; msg = "x" });
  Trace.emit t (Trace.Note { time = 1.0; pid = 1; msg = "y" });
  Alcotest.(check int) "enabled records in order" 2
    (List.length (Trace.events t))

let stats_zero n =
  {
    Trace.makespan = 100.0;
    messages = 0;
    bytes = 0;
    ownership_transfers = 0;
    guard_evals = 0;
    guard_hits = 0;
    busy = Array.make n 0.0;
    finish = Array.make n 0.0;
    peak_storage = Array.make n 0;
    statements = 0;
    unmatched_sends = 0;
    unmatched_recvs = 0;
    retransmits = 0;
    acks = 0;
    dup_suppressed = 0;
    packets_dropped = 0;
    net_overhead_bytes = 0;
    link_failures = 0;
    nic_packets = 0;
    nic_filtered = 0;
    nic_aggregated = 0;
    nic_emitted = 0;
    nic_fanout_copies = 0;
    nic_msgs_saved = 0;
    nic_bytes = 0;
    peak_inflight_bytes = Array.make n 0;
    redist_stages = 0;
  }

let test_idle_fraction () =
  let s = { (stats_zero 2) with Trace.busy = [| 100.0; 50.0 |] } in
  Alcotest.(check (float 1e-9)) "idle" 0.25 (Trace.idle_fraction s);
  let s2 = { (stats_zero 2) with Trace.busy = [| 100.0; 100.0 |] } in
  Alcotest.(check (float 1e-9)) "fully busy" 0.0 (Trace.idle_fraction s2)

let test_serialized_preset () =
  let cm = Costmodel.serialized Costmodel.message_passing in
  Alcotest.(check bool) "flag set" true cm.nic_serialize;
  Alcotest.(check bool) "default off" false
    Costmodel.message_passing.nic_serialize

(* Every built-in preset runs a real program correctly; the cost model
   moves the makespan but never the messages sent. *)
let test_presets_verify () =
  let p = Xdp_apps.Vecadd.build ~n:8 ~nprocs:4 ~stage:Xdp_apps.Vecadd.Naive () in
  let run cm =
    Xdp_runtime.Exec.run ~cost:cm ~init:Xdp_apps.Vecadd.init ~nprocs:4 p
  in
  let reference = run Costmodel.message_passing in
  List.iter
    (fun (name, cm) ->
      let r = run cm in
      Alcotest.(check bool) (name ^ " verifies") true
        (Xdp_util.Tensor.equal
           (Xdp_runtime.Exec.array r "A")
           (Xdp_apps.Vecadd.expected ~n:8));
      Alcotest.(check int) (name ^ " messages")
        reference.stats.Trace.messages r.stats.Trace.messages)
    [
      ("message passing", Costmodel.message_passing);
      ("shared address", Costmodel.shared_address);
      ("idealized", Costmodel.idealized);
      ("nic compute", Costmodel.nic_compute);
      ("serialized", Costmodel.serialized Costmodel.message_passing);
    ]

let test_gantt_renders () =
  let events =
    [
      Trace.Send_init { time = 10.0; pid = 0; name = "A"; kind = "value" };
      Trace.Blocked { time = 20.0; pid = 1; on = "A" };
      Trace.Delivered
        { time = 60.0; src = 0; dst = 1; name = "A"; kind = "value"; bytes = 8 };
      Trace.Unblocked { time = 60.0; pid = 1 };
    ]
  in
  let g = Gantt.render ~nprocs:2 ~makespan:100.0 ~width:40 events in
  Alcotest.(check bool) "has P1 lane" true
    (String.length g > 0
    && List.exists
         (fun l -> String.length l >= 2 && String.sub l 0 2 = "P1")
         (String.split_on_char '\n' g));
  Alcotest.(check bool) "marks delivery" true (String.contains g 'v');
  Alcotest.(check bool) "marks blocked" true (String.contains g '.')

let test_pp_event () =
  let s =
    Format.asprintf "%a" Trace.pp_event
      (Trace.Delivered
         { time = 1.5; src = 0; dst = 3; name = "A[1:4]"; kind = "value";
           bytes = 48 })
  in
  Alcotest.(check bool) "mentions endpoints" true
    (let has sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has "P1" && has "P4" && has "A[1:4]")

let () =
  Alcotest.run "sim_misc"
    [
      ( "costmodel",
        [
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "message math" `Quick test_message_math;
          Alcotest.test_case "with_network" `Quick test_with_network;
        ] );
      ( "trace",
        [
          Alcotest.test_case "toggle" `Quick test_trace_toggle;
          Alcotest.test_case "idle fraction" `Quick test_idle_fraction;
          Alcotest.test_case "pp event" `Quick test_pp_event;
        ] );
      ( "machines",
        [
          Alcotest.test_case "serialized preset" `Quick
            test_serialized_preset;
          Alcotest.test_case "presets verify" `Quick test_presets_verify;
        ] );
      ("gantt", [ Alcotest.test_case "render" `Quick test_gantt_renders ]);
    ]
