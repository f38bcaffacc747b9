(* In-network compute tests: the attach-time verifier's positioned
   diagnostics, filter/redirect/fan-out/aggregate semantics of the
   fabric, bank reuse across rounds, dynamic-misuse diagnosis, engine
   parity, and the headline property — NIC programs are idempotent
   under retransmit: faulty runs of the in-network reduction are
   bit-identical to fault-free runs (48 randomized plans, dup-heavy
   plans included). *)

open Xdp.Build
module Exec = Xdp_runtime.Exec
module Prog = Xdp_nic.Prog
module Verify = Xdp_nic.Verify
module Fabric = Xdp_nic.Fabric
module Faultplan = Xdp_net.Faultplan
module Prng = Xdp_util.Prng

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let grid n = Xdp_dist.Grid.linear n

let per_proc name nprocs =
  decl ~name ~shape:[ nprocs ] ~dist:[ Xdp_dist.Dist.Block ]
    ~grid:(grid nprocs) ~seg_shape:[ 1 ] ()

(* ------------------------------------------------------------------ *)
(* Verifier: every rejection is positioned (program name, instruction
   index) and names the offending operand. *)

let check_rejects ~nprocs prog expects =
  match Verify.check ~nprocs prog with
  | Ok () ->
      Alcotest.failf "program '%s' passed verification; expected rejection"
        prog.Prog.name
  | Error e ->
      let msg = Verify.error_to_string e in
      List.iter
        (fun needle ->
          if not (contains msg needle) then
            Alcotest.failf "diagnostic %S does not mention %S" msg needle)
        expects

let test_verifier_rejections () =
  let open Prog in
  let p1 name instrs = make ~name instrs in
  check_rejects ~nprocs:4
    (p1 "bad-reg" [ instr (eq (reg 99) (lit 0)) Pass ])
    [ "bad-reg"; "instr 0"; "r99" ];
  check_rejects ~nprocs:4
    (p1 "bad-set" [ instr ~sets:[ (-1, lit 0) ] True Pass ])
    [ "instr 0"; "r-1" ];
  check_rejects ~nprocs:4
    (p1 "div0" [ instr True Pass; instr True (Redirect (Bin (Div, src, lit 0))) ])
    [ "div0"; "instr 1"; "/ by constant zero" ];
  check_rejects ~nprocs:4
    (p1 "mod0" [ instr (eq (Bin (Mod, elems, lit 0)) (lit 0)) Drop ])
    [ "% by constant zero" ];
  check_rejects ~nprocs:4
    (p1 "empty-fan" [ instr True (Fanout []) ])
    [ "empty fan-out" ];
  check_rejects ~nprocs:2
    (p1 "wide-fan" [ instr True (Fanout [ lit 1; lit 2; lit 1 ]) ])
    [ "fan-out to 3 destinations"; "2-processor" ];
  check_rejects ~nprocs:4
    (p1 "bad-redirect" [ instr True (Redirect (lit 5)) ])
    [ "redirect to P5"; "1..4" ];
  check_rejects ~nprocs:4
    (p1 "bad-fan-lit" [ instr True (Fanout [ lit 0 ]) ])
    [ "fan-out to P0" ];
  check_rejects ~nprocs:4
    (p1 "agg0"
       [
         instr True
           (Aggregate
              { slot = lit 0; arity = 0; op = A_sum; emit = To_host "X" });
       ])
    [ "arity 0" ];
  check_rejects ~nprocs:4
    (p1 "agg-wide"
       [
         instr True
           (Aggregate
              { slot = lit 0; arity = 9; op = A_sum; emit = To_host "X" });
       ])
    [ "arity 9"; "nprocs + 1 = 5" ];
  check_rejects ~nprocs:4
    (p1 "agg-noname"
       [
         instr True
           (Aggregate { slot = lit 0; arity = 1; op = A_sum; emit = To_host "" });
       ])
    [ "empty name" ];
  check_rejects ~nprocs:4
    (p1 "agg-badnic"
       [
         instr True
           (Aggregate { slot = lit 0; arity = 1; op = A_sum; emit = To_nic 7 });
       ])
    [ "forwarded to P7" ];
  check_rejects ~nprocs:4 (p1 "" [ instr True Pass ]) [ "no name" ];
  check_rejects ~nprocs:4
    (p1 "too-long" (List.init 65 (fun _ -> instr True Pass)))
    [ "65 instructions"; "bound 64" ]

let test_verifier_accepts () =
  let open Prog in
  (* a representative of everything the fragment allows *)
  let p =
    make ~name:"kitchen-sink"
      [
        instr
          (All [ between src 1 4; Not (eq dst (lit 2)) ])
          ~sets:[ (0, add (reg 0) (lit 1)); (1, mul elems (lit 8)) ]
          (Redirect (sel (gt bytes (lit 64)) (lit 1) (lit 2)));
        instr (Any [ eq src (lit 1); ne elems (lit 0) ]) (Fanout [ lit 1; lit 2 ]);
        instr (le (Bin (Div, bytes, lit 8)) (lit 4)) Drop;
        instr True
          (Aggregate
             { slot = sub src (lit 1); arity = 4; op = A_max; emit = To_nic 1 });
      ]
  in
  match Verify.check ~nprocs:4 p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected: %s" (Verify.error_to_string e)

(* Attach-time (whole-fabric) rejections surface as Invalid_argument
   from Exec.run, carrying the positioned diagnostic. *)

let fire ~nprocs =
  program ~name:"fire" ~decls:[ per_proc "X" nprocs ]
    [
      (mypid =: i 1)
      @: [ set "X" [ i 1 ] (f 1.0); send_to (sec "X" [ at (i 1) ]) [ i 2 ] ];
    ]

let check_attach_rejects ~nprocs nic expects =
  match Exec.run ~nprocs ~nic (fire ~nprocs) with
  | (_ : Exec.result) -> Alcotest.fail "attach was accepted"
  | exception Invalid_argument msg ->
      List.iter
        (fun needle ->
          if not (contains msg needle) then
            Alcotest.failf "attach diagnostic %S does not mention %S" msg
              needle)
        expects

let test_attach_rejections () =
  let open Prog in
  let pass name = make ~name [ instr True Pass ] in
  let up name q =
    make ~name
      [
        instr True
          (Aggregate { slot = lit 0; arity = 1; op = A_sum; emit = To_nic q });
      ]
  in
  check_attach_rejects ~nprocs:2
    [ (1, pass "a"); (1, pass "b") ]
    [ "P2 has two NIC programs" ];
  check_attach_rejects ~nprocs:2 [ (5, pass "far") ] [ "far"; "P6"; "1..2" ];
  check_attach_rejects ~nprocs:2
    [ (1, make ~name:"bad" [ instr (eq (reg 42) (lit 0)) Drop ]) ]
    [ "bad"; "instr 0"; "r42" ];
  check_attach_rejects ~nprocs:4
    [ (1, up "lonely" 3) ]
    [ "lonely"; "forwards to P3"; "no NIC program attached" ];
  check_attach_rejects ~nprocs:4
    [ (1, up "ping" 3); (2, up "pong" 2) ]
    [ "forwarding cycle"; "P2"; "P3" ];
  check_attach_rejects ~nprocs:4 [ (1, up "self" 2) ] [ "forwarding cycle" ]

(* ------------------------------------------------------------------ *)
(* Fabric semantics through full Exec runs. *)

let relay ~nprocs =
  program ~name:"relay"
    ~decls:[ per_proc "X" nprocs; per_proc "R" nprocs ]
    [
      (mypid =: i 1)
      @: [ set "X" [ i 1 ] (f 7.5); send_to (sec "X" [ at (i 1) ]) [ i 2 ] ];
      (mypid =: i 2)
      @: [
           recv ~into:(sec "R" [ at (i 2) ]) ~from:(sec "X" [ at (i 1) ]);
           await (sec "R" [ at (i 2) ]) @: [ setv "t" (elem "R" [ i 2 ]) ];
         ];
    ]

let test_pass_through () =
  let plain = Exec.run ~nprocs:2 (relay ~nprocs:2) in
  let nic = [ (1, Prog.(make ~name:"pass" [ instr True Pass ])) ] in
  let r = Exec.run ~nprocs:2 ~nic (relay ~nprocs:2) in
  Alcotest.(check (float 0.0)) "value delivered" 7.5
    (Xdp_util.Tensor.get (Exec.array r "R") [ 2 ]);
  Alcotest.(check int) "one packet through the fabric" 1 r.stats.nic_packets;
  Alcotest.(check int) "nothing filtered" 0 r.stats.nic_filtered;
  Alcotest.(check int) "same endpoint messages" plain.stats.messages
    r.stats.messages;
  Alcotest.(check bool) "fabric hop costs time" true
    (r.stats.makespan > plain.stats.makespan);
  Alcotest.(check bool) "fabric bytes charged" true (r.stats.nic_bytes > 0)

(* One directed send to a NIC-attached and a plain destination: the
   fabric partitions it, so the plain copy goes to the wire directly
   and only the NIC copy crosses the fabric. *)
let test_mixed_destinations () =
  let nprocs = 3 in
  let p =
    program ~name:"mixed"
      ~decls:[ per_proc "X" nprocs; per_proc "R" nprocs ]
      [
        (mypid =: i 1)
        @: [
             set "X" [ i 1 ] (f 6.5);
             send_to (sec "X" [ at (i 1) ]) [ i 2; i 3 ];
           ];
        (mypid >: i 1)
        @: [
             recv ~into:(sec "R" [ at mypid ]) ~from:(sec "X" [ at (i 1) ]);
             await (sec "R" [ at mypid ]) @: [ setv "t" (elem "R" [ mypid ]) ];
           ];
      ]
  in
  let nic = [ (1, Prog.(make ~name:"pass" [ instr True Pass ])) ] in
  let r = Exec.run ~nprocs ~nic p in
  Alcotest.(check (float 0.0)) "NIC copy on P2" 6.5
    (Xdp_util.Tensor.get (Exec.array r "R") [ 2 ]);
  Alcotest.(check (float 0.0)) "plain copy on P3" 6.5
    (Xdp_util.Tensor.get (Exec.array r "R") [ 3 ]);
  Alcotest.(check int) "only P2's copy crossed the fabric" 1
    r.stats.nic_packets;
  Alcotest.(check int) "two endpoint messages" 2 r.stats.messages;
  Alcotest.(check int) "nothing left unmatched" 0 r.stats.unmatched_sends

let test_filter_drop () =
  (* without a NIC the fire-and-forget send stays unmatched; the
     filter consumes it before the board ever sees it *)
  let plain = Exec.run ~nprocs:2 (fire ~nprocs:2) in
  Alcotest.(check int) "unfiltered send pends" 1 plain.stats.unmatched_sends;
  let nic = [ (1, Prog.(make ~name:"wall" [ instr True Drop ])) ] in
  let r = Exec.run ~nprocs:2 ~nic ~trace:true (fire ~nprocs:2) in
  Alcotest.(check int) "filtered" 1 r.stats.nic_filtered;
  Alcotest.(check int) "no unmatched send left" 0 r.stats.unmatched_sends;
  Alcotest.(check int) "no endpoint message" 0 r.stats.messages;
  Alcotest.(check bool) "Nic_drop traced" true
    (List.exists
       (function Xdp_sim.Trace.Nic_drop _ -> true | _ -> false)
       (Xdp_sim.Trace.events r.trace))

let test_filter_first_match_wins () =
  (* drop-src=1 ahead of a pass-all: P1's packet dies, P3's passes *)
  let nprocs = 3 in
  let p =
    program ~name:"two-senders"
      ~decls:[ per_proc "X" nprocs; per_proc "R" nprocs ]
      [
        (mypid =: i 1)
        @: [ set "X" [ i 1 ] (f 1.0); send_to (sec "X" [ at (i 1) ]) [ i 2 ] ];
        (mypid =: i 3)
        @: [ set "X" [ i 3 ] (f 3.0); send_to (sec "X" [ at (i 3) ]) [ i 2 ] ];
        (mypid =: i 2)
        @: [
             recv ~into:(sec "R" [ at (i 2) ]) ~from:(sec "X" [ at (i 3) ]);
             await (sec "R" [ at (i 2) ]) @: [ setv "t" (elem "R" [ i 2 ]) ];
           ];
      ]
  in
  let nic =
    [
      ( 1,
        Prog.(
          make ~name:"drop-src1"
            [ instr (eq src (lit 1)) Drop; instr True Pass ]) );
    ]
  in
  let r = Exec.run ~nprocs ~nic p in
  Alcotest.(check (float 0.0)) "P3's value delivered" 3.0
    (Xdp_util.Tensor.get (Exec.array r "R") [ 2 ]);
  Alcotest.(check int) "P1's dropped" 1 r.stats.nic_filtered;
  Alcotest.(check int) "both crossed the fabric" 2 r.stats.nic_packets

let test_redirect () =
  let nprocs = 3 in
  let p =
    program ~name:"reroute"
      ~decls:[ per_proc "X" nprocs; per_proc "R" nprocs ]
      [
        (mypid =: i 1)
        @: [ set "X" [ i 1 ] (f 2.5); send_to (sec "X" [ at (i 1) ]) [ i 2 ] ];
        (mypid =: i 3)
        @: [
             recv ~into:(sec "R" [ at (i 3) ]) ~from:(sec "X" [ at (i 1) ]);
             await (sec "R" [ at (i 3) ]) @: [ setv "t" (elem "R" [ i 3 ]) ];
           ];
      ]
  in
  let nic = [ (1, Prog.(make ~name:"bounce" [ instr True (Redirect (lit 3)) ])) ] in
  let r = Exec.run ~nprocs ~nic ~trace:true p in
  Alcotest.(check (float 0.0)) "landed on P3" 2.5
    (Xdp_util.Tensor.get (Exec.array r "R") [ 3 ]);
  Alcotest.(check bool) "Nic_redirect traced" true
    (List.exists
       (function
         | Xdp_sim.Trace.Nic_redirect { dest; _ } -> dest = 2
         | _ -> false)
       (Xdp_sim.Trace.events r.trace))

let test_fanout () =
  let nprocs = 3 in
  let p =
    program ~name:"mcast"
      ~decls:[ per_proc "X" nprocs; per_proc "R" nprocs ]
      [
        (mypid =: i 1)
        @: [ set "X" [ i 1 ] (f 4.25); send_to (sec "X" [ at (i 1) ]) [ i 2 ] ];
        (mypid >: i 1)
        @: [
             recv ~into:(sec "R" [ at mypid ]) ~from:(sec "X" [ at (i 1) ]);
             await (sec "R" [ at mypid ]) @: [ setv "t" (elem "R" [ mypid ]) ];
           ];
      ]
  in
  let nic =
    [ (1, Prog.(make ~name:"scatter" [ instr True (Fanout [ lit 2; lit 3 ]) ])) ]
  in
  let r = Exec.run ~nprocs ~nic p in
  Alcotest.(check (float 0.0)) "copy on P2" 4.25
    (Xdp_util.Tensor.get (Exec.array r "R") [ 2 ]);
  Alcotest.(check (float 0.0)) "copy on P3" 4.25
    (Xdp_util.Tensor.get (Exec.array r "R") [ 3 ]);
  Alcotest.(check int) "two copies" 2 r.stats.nic_fanout_copies;
  Alcotest.(check int) "two endpoint deliveries" 2 r.stats.messages

(* Two aggregation rounds through one bank: contributions keyed by
   source, combined in slot order, bank reset between rounds. *)
let test_aggregate_rounds () =
  let nprocs = 3 in
  let p =
    program ~name:"agg2"
      ~decls:
        [
          per_proc "PART" nprocs;
          per_proc "SUM" nprocs;
          per_proc "R" nprocs;
          per_proc "R2" nprocs;
        ]
      [
        set "PART" [ mypid ] (mypid *: f 1.0);
        send_to (sec "PART" [ at mypid ]) [ i 3 ];
        set "PART" [ mypid ] (mypid *: f 10.0);
        send_to (sec "PART" [ at mypid ]) [ i 3 ];
        (mypid =: i 3)
        @: [
             recv ~into:(sec "R" [ at (i 3) ]) ~from:(sec "SUM" [ at (i 3) ]);
             recv ~into:(sec "R2" [ at (i 3) ]) ~from:(sec "SUM" [ at (i 3) ]);
             await (sec "R" [ at (i 3) ]) @: [ setv "a" (elem "R" [ i 3 ]) ];
             await (sec "R2" [ at (i 3) ]) @: [ setv "b" (elem "R2" [ i 3 ]) ];
           ];
      ]
  in
  let nic =
    [
      ( 2,
        Prog.(
          make ~name:"fold3"
            [
              instr True
                (Aggregate
                   {
                     slot = sub src (lit 1);
                     arity = 3;
                     op = A_sum;
                     emit = To_host "SUM[3]";
                   });
            ]) );
    ]
  in
  let r = Exec.run ~nprocs ~nic p in
  Alcotest.(check (float 0.0)) "round 1 sum" 6.0
    (Xdp_util.Tensor.get (Exec.array r "R") [ 3 ]);
  Alcotest.(check (float 0.0)) "round 2 sum" 60.0
    (Xdp_util.Tensor.get (Exec.array r "R2") [ 3 ]);
  Alcotest.(check int) "six absorbed" 6 r.stats.nic_aggregated;
  Alcotest.(check int) "two emitted" 2 r.stats.nic_emitted;
  Alcotest.(check int) "four endpoint messages saved" 4
    r.stats.nic_msgs_saved;
  Alcotest.(check int) "only the totals reach endpoints" 2 r.stats.messages

let test_dynamic_misuse () =
  let nic =
    [
      ( 1,
        Prog.(
          make ~name:"oob"
            [
              instr True
                (Aggregate
                   {
                     slot = add src (lit 40);
                     arity = 2;
                     op = A_sum;
                     emit = To_host "X";
                   });
            ]) );
    ]
  in
  match Exec.run ~nprocs:2 ~nic (fire ~nprocs:2) with
  | (_ : Exec.result) -> Alcotest.fail "expected Nic_misuse"
  | exception Fabric.Nic_misuse msg ->
      Alcotest.(check bool) "names the program" true (contains msg "oob");
      Alcotest.(check bool) "names the slot" true (contains msg "slot 41")

(* ------------------------------------------------------------------ *)
(* Engine parity: the fabric sits on the shared posting seam, so the
   staged engine and the interpreter must agree to the last float and
   counter. *)

let test_engine_parity () =
  List.iter
    (fun (nprocs, arity) ->
      let prog =
        Xdp_apps.Reduce.build ~n:24 ~nprocs ~stage:(Xdp_apps.Reduce.Nic arity)
          ()
      in
      let nic = Xdp_apps.Reduce.nic_spec ~nprocs ~arity in
      let rc =
        Exec.run ~engine:`Compiled ~init:Xdp_apps.Reduce.init ~nprocs ~nic prog
      and ri =
        Exec.run ~engine:`Interp ~init:Xdp_apps.Reduce.init ~nprocs ~nic prog
      in
      Alcotest.(check bool)
        (Printf.sprintf "P=%d a=%d: identical stats" nprocs arity)
        true (rc.stats = ri.stats);
      Alcotest.(check bool)
        (Printf.sprintf "P=%d a=%d: identical arrays" nprocs arity)
        true
        (Xdp_util.Tensor.equal (Exec.array rc "OUT") (Exec.array ri "OUT")))
    [ (4, 2); (6, 2); (8, 3); (9, 4) ]

(* ------------------------------------------------------------------ *)
(* Idempotence under retransmit: for any eventual-delivery fault plan
   (dup-heavy plans included), a run of the in-network reduction is
   bit-identical to the fault-free run — same gathered arrays, same
   NIC counters, no unmatched traffic.  48 randomized cases. *)

let nic_plan_of_seed seed =
  let g = Prng.stream 0x41C [ seed ] in
  let drop = Prng.float_in g 0.0 0.4 in
  (* every other plan is duplication-heavy: retransmit-style repeats
     are exactly what must not perturb NIC state *)
  let dup =
    if seed mod 2 = 0 then Prng.float_in g 0.4 0.9
    else Prng.float_in g 0.0 0.3
  in
  let jitter = Prng.float_in g 0.0 0.6 in
  let deliver_after = Prng.int_in g 0 4 in
  Faultplan.make ~seed ~drop ~dup ~jitter ~deliver_after ()

let test_idempotent_under_faults () =
  let cases = ref 0 in
  List.iter
    (fun (nprocs, arity) ->
      let prog =
        Xdp_apps.Reduce.build ~n:32 ~nprocs
          ~stage:(Xdp_apps.Reduce.Nic arity) ()
      in
      let nic = Xdp_apps.Reduce.nic_spec ~nprocs ~arity in
      let clean = Exec.run ~init:Xdp_apps.Reduce.init ~nprocs ~nic prog in
      for seed = 1 to 12 do
        let fault = nic_plan_of_seed seed in
        let r =
          Exec.run ~init:Xdp_apps.Reduce.init ~nprocs ~nic ~fault prog
        in
        incr cases;
        if
          not
            (Xdp_util.Tensor.equal (Exec.array r "OUT")
               (Exec.array clean "OUT"))
        then
          Alcotest.failf "P=%d a=%d seed=%d (%s): OUT differs from fault-free"
            nprocs arity seed
            (Faultplan.describe fault);
        List.iter
          (fun (label, f) ->
            let a = f clean.stats and b = f r.stats in
            if a <> b then
              Alcotest.failf "P=%d a=%d seed=%d: %s %d <> clean %d" nprocs
                arity seed label b a)
          [
            ("nic_packets", fun s -> s.Xdp_sim.Trace.nic_packets);
            ("nic_aggregated", fun s -> s.Xdp_sim.Trace.nic_aggregated);
            ("nic_emitted", fun s -> s.Xdp_sim.Trace.nic_emitted);
            ("nic_fanout_copies", fun s -> s.Xdp_sim.Trace.nic_fanout_copies);
            ("messages", fun s -> s.Xdp_sim.Trace.messages);
            ("unmatched_sends", fun s -> s.Xdp_sim.Trace.unmatched_sends);
            ("unmatched_recvs", fun s -> s.Xdp_sim.Trace.unmatched_recvs);
          ]
      done)
    [ (4, 2); (8, 2); (8, 4); (9, 3) ];
  Alcotest.(check bool)
    (Printf.sprintf "ran %d cases (>= 40)" !cases)
    true (!cases >= 40)

let () =
  Alcotest.run "nic"
    [
      ( "verifier",
        [
          Alcotest.test_case "positioned rejections" `Quick
            test_verifier_rejections;
          Alcotest.test_case "well-formed program accepted" `Quick
            test_verifier_accepts;
          Alcotest.test_case "attach-time whole-fabric checks" `Quick
            test_attach_rejections;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "pass-through" `Quick test_pass_through;
          Alcotest.test_case "mixed NIC and plain destinations" `Quick
            test_mixed_destinations;
          Alcotest.test_case "filter: drop consumes pre-board" `Quick
            test_filter_drop;
          Alcotest.test_case "filter: first match wins" `Quick
            test_filter_first_match_wins;
          Alcotest.test_case "redirect" `Quick test_redirect;
          Alcotest.test_case "multicast fan-out" `Quick test_fanout;
          Alcotest.test_case "aggregation rounds reuse the bank" `Quick
            test_aggregate_rounds;
          Alcotest.test_case "dynamic misuse diagnosed" `Quick
            test_dynamic_misuse;
        ] );
      ( "differential",
        [
          Alcotest.test_case "engine parity on nic reduce" `Quick
            test_engine_parity;
          Alcotest.test_case "idempotent under faults (48 plans)" `Slow
            test_idempotent_under_faults;
        ] );
    ]
