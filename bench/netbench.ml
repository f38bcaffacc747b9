(* NET: retransmit overhead vs drop rate (experiment for the
   unreliable-network subsystem).

   Sweeps the per-packet drop probability on two transfer-heavy apps —
   the misaligned §2.2 vector add (directed value messages) and the §4
   3-D FFT ownership-transfer pipeline — and measures what reliability
   costs: retransmits, ack/retransmit bytes beyond the fault-free
   payload, and the makespan inflation.  Every faulty run is verified
   bit-identical to its fault-free tensors (the transport's headline
   property); any divergence fails the run. *)

module Exec = Xdp_runtime.Exec
module Faultplan = Xdp_net.Faultplan
module J = Xdp_util.Jsonw

type app = {
  label : string;
  prog : Xdp.Ir.program;
  init : string -> int list -> float;
  arrays : string list;
  nprocs : int;
}

let apps ~smoke =
  let nprocs = 4 in
  let n_vec = if smoke then 16 else 64 in
  let n_fft = if smoke then 4 else 8 in
  [
    {
      label = Printf.sprintf "vecadd naive misaligned n=%d" n_vec;
      prog =
        Xdp_apps.Vecadd.build ~n:n_vec ~nprocs ~dist_b:Xdp_dist.Dist.Cyclic
          ~stage:Xdp_apps.Vecadd.Naive ();
      init = Xdp_apps.Vecadd.init;
      arrays = [ "A" ];
      nprocs;
    };
    {
      label = Printf.sprintf "fft3d pipelined n=%d" n_fft;
      prog =
        Xdp_apps.Fft3d.build ~n:n_fft ~nprocs ~seg_rows:2
          ~stage:Xdp_apps.Fft3d.Pipelined ();
      init = Xdp_apps.Fft3d.init;
      arrays = [ "A" ];
      nprocs;
    };
  ]

let drops = [ 0.0; 0.05; 0.1; 0.2; 0.4 ]

(* One row per (app, drop rate), and its tripwire: the run must
   reproduce the fault-free run's tensors. *)
let sweep_app app =
  let clean = Exec.run ~init:app.init ~nprocs:app.nprocs app.prog in
  List.map
    (fun drop ->
      let fault =
        if drop = 0.0 then Faultplan.none
        else Faultplan.make ~seed:1302 ~drop ~dup:0.05 ~jitter:0.25 ()
      in
      let r = Exec.run ~init:app.init ~nprocs:app.nprocs ~fault app.prog in
      let identical =
        List.for_all
          (fun a ->
            Xdp_util.Tensor.equal (Exec.array r a) (Exec.array clean a))
          app.arrays
        && Exec.ownership_defects r app.prog = (0, 0)
      in
      let s = r.stats in
      ( Runs.row app.label ~stats:s ~identical
          ~config:[ ("drop", J.Fixed (drop, 2)) ]
          (( "slowdown",
             J.Fixed (s.makespan /. Float.max clean.stats.makespan 1e-9, 2) )
          :: Runs.stats_keys s
               [
                 "retransmits"; "acks"; "dup_suppressed"; "net_overhead_bytes";
               ]),
        ( identical,
          Printf.sprintf "%s drop=%.2f: faulty run diverged from fault-free run"
            app.label drop ) ))
    drops

let run ?(smoke = false) () =
  Printf.printf
    "\n============ NET: retransmit overhead vs drop rate ============\n\n%!";
  let rows, tripwires =
    List.split (List.concat_map sweep_app (apps ~smoke))
  in
  Runs.report ~bench:"net" ~smoke ~title:"retransmit overhead vs drop rate"
    rows;
  Runs.check ~bench:"net" rows tripwires
