(* NIC: in-network reduction vs endpoint reduction (experiment for
   the programmable-NIC fabric, DESIGN.md section 9).

   Sweeps the machine size on the reduce app and compares the Partial
   endpoint combining tree against the Nic stage, where every
   processor's NIC folds its subtree's partial sums in-flight and the
   root NIC multicasts the total.  For each P the sweep records both
   makespans, the endpoint message counts and the fabric counters,
   then re-runs the NIC configuration under a dup-heavy fault plan
   and checks the output tensors bit-identical — the fabric sits
   above the wire, so retransmits and duplicates must not touch NIC
   state (the subsystem's headline idempotence property).

   Tripwires (armed in smoke and full runs alike — the simulation is
   deterministic): in-network reduction must deliver strictly fewer
   endpoint messages at every P, and a strictly lower makespan from
   P = 16 up; any faulty-vs-clean divergence fails outright.  One row
   per P: the in-network run's shared columns, the endpoint tree's
   makespan and messages and the fabric counters as own keys. *)

module Exec = Xdp_runtime.Exec
module Faultplan = Xdp_net.Faultplan
module Reduce = Xdp_apps.Reduce
module J = Xdp_util.Jsonw

let arity = 4

let run_stage ~n ~nprocs ~fault stage =
  let nic =
    match stage with
    | Reduce.Nic a -> Reduce.nic_spec ~nprocs ~arity:a
    | _ -> []
  in
  Exec.run ~init:Reduce.init ~fault ~nic ~nprocs
    (Reduce.build ~n ~nprocs ~stage ())

let check_out ~n ~nprocs what (r : Exec.result) =
  let out = Exec.array r "OUT" in
  let want = Reduce.expected_sum ~n in
  for p = 1 to nprocs do
    let got = Xdp_util.Tensor.get out [ p ] in
    if Float.abs (got -. want) > 1e-6 then
      failwith
        (Printf.sprintf "NIC sweep: %s P=%d: OUT[%d] = %g, want %g" what
           nprocs p got want)
  done

let measure nprocs =
  let n = 4 * nprocs in
  let partial = run_stage ~n ~nprocs ~fault:Faultplan.none Reduce.Partial in
  let nic = run_stage ~n ~nprocs ~fault:Faultplan.none (Reduce.Nic arity) in
  check_out ~n ~nprocs "partial" partial;
  check_out ~n ~nprocs "nic" nic;
  (* the idempotence property: a dup-heavy faulty run must reproduce
     the clean run's tensors and fabric counters bit-for-bit *)
  let faulty =
    let fault =
      Faultplan.make ~seed:4801 ~drop:0.15 ~dup:0.5 ~jitter:0.4 ()
    in
    run_stage ~n ~nprocs ~fault (Reduce.Nic arity)
  in
  let identical =
    Xdp_util.Tensor.equal (Exec.array faulty "OUT") (Exec.array nic "OUT")
    && faulty.stats.nic_packets = nic.stats.nic_packets
    && faulty.stats.nic_aggregated = nic.stats.nic_aggregated
    && faulty.stats.nic_emitted = nic.stats.nic_emitted
    && faulty.stats.nic_fanout_copies = nic.stats.nic_fanout_copies
  in
  let p = partial.stats and s = nic.stats in
  ( Runs.row (Printf.sprintf "P=%d" nprocs)
      ~config:[ ("procs", J.Int nprocs); ("n", J.Int n) ]
      ~stats:s ~identical
      ([
         ("partial_makespan", J.Float p.makespan);
         ("partial_messages", J.Int p.messages);
         ("speedup", J.Fixed (p.makespan /. s.makespan, 3));
       ]
      @ Runs.stats_keys s
          [ "nic_aggregated"; "nic_emitted"; "nic_msgs_saved" ]),
    (* tripwires — deterministic simulation, so they arm everywhere *)
    [
      ( identical,
        Printf.sprintf "P=%d: faulty run diverged from fault-free run" nprocs );
      ( s.messages < p.messages,
        Printf.sprintf
          "P=%d: in-network used %d endpoint messages, endpoint tree %d"
          nprocs s.messages p.messages );
      ( nprocs < 16 || s.makespan < p.makespan,
        Printf.sprintf "P=%d: in-network makespan %.1f not below endpoint %.1f"
          nprocs s.makespan p.makespan );
      ( s.messages = nprocs + 1,
        Printf.sprintf "P=%d: expected P+1 endpoint messages, got %d" nprocs
          s.messages );
    ] )

let run ?(smoke = false) () =
  Printf.printf
    "\n============ NIC: in-network vs endpoint reduction ============\n\n%!";
  let procs = if smoke then [ 8; 16 ] else [ 64; 128; 256; 512; 1024 ] in
  let rows, tripwires = List.split (List.map measure procs) in
  Runs.report ~bench:"nic" ~smoke
    ~title:(Printf.sprintf "reduce: partial vs nic (arity=%d)" arity)
    ~config:[ ("arity", J.Int arity); ("cost", J.Str "message_passing") ]
    rows;
  Runs.check ~bench:"nic" rows (List.concat tripwires)
