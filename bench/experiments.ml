(* The paper's experiments T1-T10 (and, through [Figures.fig1], Figure
   1's conformance matrix) as the rows of BENCH_paper.json.  Each
   section turns one of the paper's qualitative performance claims into
   measured rows on the simulated machine, one row per (section,
   variant), and arms the claim as a named tripwire.  Every row's
   [identical] column checks its run against the sequential reference
   ([Seq]) or a closed form, and [run] fails on any [false].  The
   simulator is deterministic, so [wall_s] is null and the `paper` dune
   alias gates the whole file by diffing it against the committed
   copy.  EXPERIMENTS.md records the paper-vs-measured reading. *)

module Exec = Xdp_runtime.Exec
module Trace = Xdp_sim.Trace
module Costmodel = Xdp_sim.Costmodel
module Dist = Xdp_dist.Dist
module Tensor = Xdp_util.Tensor
module J = Xdp_util.Jsonw
module Vecadd = Xdp_apps.Vecadd
module Fft3d = Xdp_apps.Fft3d
module Jacobi = Xdp_apps.Jacobi

let int k v = (k, J.Int v)
let num k v = (k, J.Float v)
let ratio x = J.Fixed (x, 4)

(* One simulated run: its variant name and config, its stats and
   whether its result matched the reference. *)
type run = {
  variant : string;
  config : (string * J.t) list;
  stats : Trace.stats;
  ok : bool;
}

let exec ?(cost = Costmodel.message_passing) ?free_on_release ~init ~nprocs
    ~config ~check variant prog =
  let r = Exec.run ~cost ~init ?free_on_release ~nprocs prog in
  { variant; config; stats = r.stats; ok = check r }

(* [matches reference] checks a run's array A against [reference]. *)
let matches reference r = Tensor.max_diff (Exec.array r "A") reference < 1e-9

(* The check against the sequential interpreter's array A. *)
let seq_check ~init prog =
  matches (Xdp_runtime.Seq.array (Xdp_runtime.Seq.run ~init prog) "A")

let fft_check ~n ~nprocs =
  seq_check ~init:Fft3d.init (Fft3d.sequential ~n ~nprocs)

let jacobi_check ~n ~nprocs ~sweeps =
  seq_check ~init:Jacobi.init
    (Jacobi.build ~n ~nprocs ~sweeps ~stage:Jacobi.Sequential ())

(* Cells 1..nprocs of array [name], one per processor. *)
let cells ~nprocs name r =
  List.init nprocs (fun q -> Tensor.get (Exec.array r name) [ q + 1 ])

let find runs v = List.find (fun r -> r.variant = v) runs
let makespan runs v = (find runs v).stats.makespan
let peak (s : Trace.stats) = Array.fold_left max 0 s.peak_storage

(* A run's row: the shared columns, guards, ownership transfers, idle
   fraction and peak storage, then the section's own [keys]. *)
let row ?(keys = []) section r =
  Runs.row (section ^ " " ^ r.variant) ~config:r.config ~stats:r.stats
    ~identical:r.ok
    (Runs.stats_keys r.stats [ "guard_evals"; "ownership_transfers" ]
    @ [ ("idle", ratio (Trace.idle_fraction r.stats));
        int "peak_storage" (peak r.stats) ]
    @ keys)

(* Rows carrying each run's makespan speedup over the first run. *)
let ladder ?(keys = fun _ -> []) section runs =
  let base = (List.hd runs).stats.makespan in
  List.map
    (fun r ->
      row section r
        ~keys:(("speedup", ratio (base /. r.stats.makespan)) :: keys r))
    runs

(* Rows over a processor-count sweep [(p, run)], carrying each run's
   parallel efficiency against the first (smallest) count. *)
let efficiency runs =
  let p0, r0 = List.hd runs in
  List.map
    (fun (p, r) ->
      let speedup = r0.stats.makespan /. r.stats.makespan in
      (p, speedup *. float_of_int p0 /. float_of_int p))
    runs

let scaling section runs =
  List.map2
    (fun (_, r) (_, e) -> row section r ~keys:[ ("efficiency", ratio e) ])
    runs (efficiency runs)

(* Rows carrying each run's peak storage in partitions. *)
let storage section partition runs =
  List.map
    (fun r ->
      row section r
        ~keys:
          [ ( "vs_partition",
              ratio (float_of_int (peak r.stats) /. float_of_int partition) ) ])
    runs

(* [pairwise f xs]: [f] holds between every element and the next. *)
let rec pairwise f = function
  | a :: (b :: _ as rest) -> f a b && pairwise f rest
  | _ -> true

let decreasing runs =
  pairwise ( > ) (List.map (fun r -> r.stats.makespan) runs)

(* ---- T1: the §2.2 optimization ladder ---- *)

let t1 () =
  let n = 64 and nprocs = 4 in
  let stages dist_b =
    List.filter_map
      (fun stage ->
        if stage = Vecadd.Sequential then None
        else
          Some
            (exec ~init:Vecadd.init ~nprocs
               ~config:
                 [ int "n" n; int "procs" nprocs;
                   ("dist_b", J.Str (Dist.to_string dist_b)) ]
               ~check:(matches (Vecadd.expected ~n))
               (Vecadd.stage_name stage)
               (Vecadd.build ~n ~nprocs ~dist_b ~stage ())))
      Vecadd.all_stages
  in
  let a = stages Dist.Block and b = stages Dist.Cyclic in
  let stat runs v f = f (find runs v).stats in
  let msgs (s : Trace.stats) = s.messages in
  let bytes (s : Trace.stats) = s.bytes in
  ( ladder "T1" a @ ladder "T1.b" b,
    [
      ( decreasing (List.map (find a) [ "naive"; "elim-comm"; "localized" ]),
        "T1: makespan not naive > elim-comm > localized" );
      ( stat a "naive" msgs = 64 && stat a "localized" msgs = 0,
        "T1: messages not 64 -> 0 from naive to localized" );
      ( (find a "localized").stats.guard_evals = 0,
        "T1: the localized vector add still evaluates guards" );
      ( List.for_all (fun r -> r.stats.messages = 64) b,
        "T1.b: a stage lost the misaligned layout's 64 messages" );
      ( stat b "naive" bytes = 1536 && stat b "bound" bytes = 512,
        "T1.b: Bind does not cut bytes 1536 -> 512" );
    ] )

(* ---- T2 and T2.b: FFT pipelining by loop fusion (§4) ---- *)

let t2 () =
  (* a network slow enough that the redistribution latency is worth
     hiding; T2.b also serializes each sender's injections *)
  let alpha = 50000.0 and beta = 2.0 in
  let slow = Costmodel.with_network Costmodel.message_passing ~alpha ~beta in
  let stages ?(prefix = "") ~(cost : Costmodel.t) ~n ~nprocs stages =
    let config =
      [ int "n" n; int "procs" nprocs; num "alpha" alpha; num "beta" beta;
        ("serialized", J.Bool cost.nic_serialize) ]
    in
    let check = fft_check ~n ~nprocs in
    List.map
      (fun stage ->
        exec ~cost ~init:Fft3d.init ~nprocs ~config ~check
          (prefix ^ Fft3d.stage_name stage)
          (Fft3d.build ~n ~nprocs ~stage ()))
      stages
  in
  let a = stages ~cost:slow ~n:32 ~nprocs:4 Fft3d.all_stages in
  let b =
    stages ~cost:(Costmodel.serialized slow) ~n:32 ~nprocs:4 Fft3d.all_stages
  in
  (* Every fused and pipelined form is the passes' output: at n = 32,
     P = 4 Fuse interchanges the dim-1 FFT nest before fusing it with
     the sends; with one plane per processor there is no nest. *)
  let one_plane =
    stages ~prefix:"P=16 " ~cost:slow ~n:16 ~nprocs:16
      Fft3d.[ Localized; Fused ]
  in
  let mean_finish r =
    let f = r.stats.finish in
    [ num "mean_finish"
        (Array.fold_left ( +. ) 0.0 f /. float_of_int (Array.length f)) ]
  in
  let guards v = (find a v).stats.guard_evals in
  let fusion_gain runs = makespan runs "baseline" /. makespan runs "fused" in
  ( ladder ~keys:mean_finish "T2" a @ ladder "T2" one_plane @ ladder "T2.b" b,
    [
      ( decreasing (List.map (find a) [ "baseline"; "localized"; "fused" ]),
        "T2: makespan not baseline > localized > fused" );
      ( Trace.idle_fraction (find a "fused").stats = 0.0,
        "T2: the fused FFT still idles" );
      ( guards "pipelined" = 32 * guards "fused",
        "T2: pipelined does not evaluate 32x the fused guards" );
      ( makespan a "pipelined" < makespan a "localized",
        "T2: the pipelined FFT no longer beats the localized one" );
      ( decreasing one_plane,
        "T2: with one plane per processor the Fuse pass's program is not \
         faster than the localized one" );
      ( fusion_gain b > fusion_gain a,
        "T2.b: fusion's speedup under a serializing NIC does not exceed T2's"
      );
    ] )

(* ---- T3: segment granularity (§3.1) ---- *)

let t3 () =
  let n = 16 and nprocs = 4 and alpha = 20000.0 and beta = 1.0 in
  let cost = Costmodel.with_network Costmodel.message_passing ~alpha ~beta in
  let config =
    [ int "n" n; int "procs" nprocs; num "alpha" alpha; num "beta" beta ]
  in
  let check = fft_check ~n ~nprocs in
  let runs =
    List.map
      (fun seg_rows ->
        exec ~cost ~init:Fft3d.init ~nprocs ~config ~check
          (Printf.sprintf "seg rows=%d" seg_rows)
          (Fft3d.build ~n ~nprocs ~seg_rows ~stage:Fft3d.Fused ()))
      [ 16; 8; 4; 2; 1 ]
  in
  let first = List.hd runs in
  ( ladder "T3" runs,
    [
      ( pairwise (fun a b -> b.stats.messages = 2 * a.stats.messages) runs,
        "T3: messages do not double as segment rows halve" );
      ( List.for_all (fun r -> first.stats.makespan <= r.stats.makespan) runs,
        "T3: 16-row segments no longer have the lowest makespan" );
    ] )

(* ---- T4: delayed communication binding (§3.2) ---- *)

(* Stylized 1993-era machines for T4.c: order-of-magnitude folklore for
   message startup and per-byte cost in processor cycles, not vendor
   measurements.  Only their relative shape matters: millisecond-class
   software startup against the KSR1's hardware shared-address
   transfers. *)
let machines =
  let mk name ~send ~alpha ~beta =
    { Costmodel.message_passing with
      name; time_send_init = send; time_recv_init = send; alpha; beta }
  in
  [
    mk "iPSC/860" ~send:300.0 ~alpha:3000.0 ~beta:1.25;
    mk "Delta" ~send:250.0 ~alpha:3500.0 ~beta:0.85;
    mk "Paragon" ~send:200.0 ~alpha:2000.0 ~beta:0.25;
    mk "CM-5" ~send:180.0 ~alpha:3400.0 ~beta:0.9;
    mk "SP-1" ~send:350.0 ~alpha:4000.0 ~beta:0.6;
    { Costmodel.shared_address with name = "KSR1" };
  ]

let t4 () =
  let n = 64 and nprocs = 4 and sweeps = 4 in
  let check = jacobi_check ~n ~nprocs ~sweeps in
  let config (cost : Costmodel.t) n =
    [ int "n" n; int "procs" nprocs; ("cost", J.Str cost.name) ]
  in
  let jacobi ~(cost : Costmodel.t) ?(variant = "") stage =
    exec ~cost ~init:Jacobi.init ~nprocs ~check
      ~config:(config cost n @ [ int "sweeps" sweeps ])
      (if variant = "" then cost.name ^ " " ^ Jacobi.stage_name stage
       else variant)
      (Jacobi.build ~n ~nprocs ~sweeps ~stage ())
  in
  (* T4.a: one program per stage, bound to three machine models *)
  let a =
    List.map
      (fun cost -> List.map (jacobi ~cost) Jacobi.[ Elim; Auto_halo; Halo ])
      Costmodel.[ message_passing; shared_address; idealized ]
  in
  (* T4.b: the halo exchange's advantage over elim-comm against alpha *)
  let b =
    List.map
      (fun alpha ->
        let cost =
          Costmodel.with_network Costmodel.message_passing ~alpha ~beta:0.5
        in
        let e = jacobi ~cost Jacobi.Elim in
        let h =
          jacobi ~cost ~variant:(Printf.sprintf "alpha=%.0f" alpha) Jacobi.Halo
        in
        (alpha, ({ h with ok = h.ok && e.ok }, e.stats.makespan)))
      [ 0.0; 50.0; 500.0; 2000.0; 10000.0 ]
  in
  let advantage (h, e) = e /. h.stats.makespan in
  (* T4.c: the halo program and the fused FFT across the catalogue *)
  let fft_check = fft_check ~n:16 ~nprocs in
  let c =
    List.map
      (fun (cost : Costmodel.t) ->
        ( jacobi ~cost Jacobi.Halo,
          exec ~cost ~init:Fft3d.init ~nprocs ~config:(config cost 16)
            ~check:fft_check (cost.name ^ " fft fused")
            (Fft3d.build ~n:16 ~nprocs ~stage:Fft3d.Fused ()) ))
      machines
  in
  let ksr1_fastest runs =
    let ksr1 = List.find (fun r -> String.starts_with ~prefix:"KSR1" r.variant) runs in
    List.for_all
      (fun r -> r == ksr1 || ksr1.stats.makespan < r.stats.makespan)
      runs
  in
  ( List.concat_map (List.map (row "T4.a")) a
    @ List.map
        (fun (_, ((h, e) as pair)) ->
          row "T4.b" h
            ~keys:[ num "elim_makespan" e; ("advantage", ratio (advantage pair)) ])
        b
    @ List.concat_map (fun (h, f) -> [ row "T4.c" h; row "T4.c" f ]) c,
    List.map
      (fun runs ->
        ( decreasing runs,
          "T4.a: makespan not elim-comm > auto-halo > halo on "
          ^ (List.hd runs).variant ))
      a
    @ [
        ( advantage (List.assoc 2000.0 b) > advantage (List.assoc 0.0 b),
          "T4.b: the halo advantage at alpha=2000 does not exceed alpha=0's" );
        ( List.length c = 6 && List.for_all (fun (h, f) -> h.ok && f.ok) c,
          "T4.c: not six machines that each verify both programs" );
        ( List.exists
            (fun (m : Costmodel.t) ->
              m.name = "KSR1" && m.alpha = Costmodel.shared_address.alpha)
            machines
          && ksr1_fastest (List.map fst c)
          && ksr1_fastest (List.map snd c),
          "T4.c: the shared-address KSR1 is not the fastest machine on both \
           programs" );
      ] )

(* ---- T5: load balancing by ownership migration (§2.6-2.7) ---- *)

let t5 () =
  let module Farm = Xdp_apps.Farm in
  let ntasks = 32 and nprocs = 4 in
  let farm ~base ~skew variant =
    (* every task runs exactly once: the per-processor work adds up *)
    let want = Farm.total_work ~base ~skew ~ntasks () in
    exec ~init:(Farm.init ~base ~skew ~ntasks) ~nprocs
      ~config:[ int "ntasks" ntasks; int "procs" nprocs; num "grain" base ]
      ~check:(fun r ->
        let got = List.fold_left ( +. ) 0.0 (cells ~nprocs "ACC" r) in
        Float.abs (got -. want) < 1e-6)
      (Printf.sprintf "grain=%.0f %s" base (Farm.skew_name skew))
      (Farm.build ~ntasks ~nprocs ~variant ())
  in
  let skewed = Farm.[ Linear; Quadratic; Front_loaded ] in
  let grain base =
    List.map
      (fun skew ->
        let s = farm ~base ~skew Farm.Static in
        let d = farm ~base ~skew Farm.Dynamic in
        (skew, { d with ok = d.ok && s.ok }, s.stats))
      ((Farm.Uniform :: skewed) @ [ Farm.Random 42 ])
  in
  let fine = grain 200.0 and coarse = grain 20000.0 in
  let gain (_, d, (s : Trace.stats)) = s.makespan /. d.stats.makespan in
  ( List.map
      (fun ((_, d, (s : Trace.stats)) as cell) ->
        row "T5" d
          ~keys:
            [ num "static_makespan" s.makespan;
              ("static_idle", ratio (Trace.idle_fraction s));
              ("gain", ratio (gain cell)) ])
      (fine @ coarse),
    [
      ( List.for_all (fun c -> gain c < 1.0) fine,
        "T5: at grain 200 dynamic migration wins on some skew" );
      ( List.for_all
          (fun ((skew, _, _) as c) -> gain c > 1.0 || not (List.mem skew skewed))
          coarse,
        "T5: at grain 20000 dynamic migration loses on a skewed farm" );
    ] )

(* ---- T6: storage reuse after ownership send (§2.6) ---- *)

let t6 () =
  let n = 16 and nprocs = 4 in
  let partition = n * n * n / nprocs in
  let policy variant free_on_release =
    exec ~init:Fft3d.init ~free_on_release ~nprocs
      ~config:[ int "n" n; int "procs" nprocs ]
      ~check:(fft_check ~n ~nprocs) variant
      (Fft3d.build ~n ~nprocs ~stage:Fft3d.Localized ())
  in
  let reuse = policy "free on ownership send" true in
  let keep = policy "keep dead chunks" false in
  ( storage "T6" partition [ reuse; keep ],
    [
      ( peak reuse.stats = partition && peak keep.stats = 2 * partition,
        "T6: peak storage is not 1.0x partition when freeing, 2.0x when not" );
    ] )

(* ---- T7: scaling with processor count ---- *)

let t7 () =
  let sweep config f =
    List.map
      (fun nprocs ->
        let init, check, prog = f nprocs in
        ( nprocs,
          exec ~init ~nprocs ~check ~config:(int "procs" nprocs :: config)
            (Printf.sprintf "P=%d" nprocs) prog ))
      [ 2; 4; 8; 16 ]
  in
  let vecadd =
    sweep [ int "n" 64; ("stage", J.Str "bound") ] (fun nprocs ->
        ( Vecadd.init,
          matches (Vecadd.expected ~n:64),
          Vecadd.build ~n:64 ~nprocs ~stage:Vecadd.Bound () ))
  in
  let halo =
    sweep [ int "n" 64; int "sweeps" 4 ] (fun nprocs ->
        ( Jacobi.init,
          jacobi_check ~n:64 ~nprocs ~sweeps:4,
          Jacobi.build ~n:64 ~nprocs ~sweeps:4 ~stage:Jacobi.Halo () ))
  in
  let fft =
    sweep [ int "n" 16; ("stage", J.Str "pipelined") ] (fun nprocs ->
        ( Fft3d.init,
          fft_check ~n:16 ~nprocs,
          Fft3d.build ~n:16 ~nprocs ~stage:Fft3d.Pipelined () ))
  in
  (* T7.d: strips against tiles for the 2-D stencil *)
  let module J2 = Xdp_apps.Jacobi2d in
  let n = 32 and sweeps = 4 in
  let check =
    seq_check ~init:J2.init
      (J2.build ~n ~pr:1 ~pc:1 ~sweeps ~stage:J2.Sequential ())
  in
  let grids =
    List.map
      (fun (pr, pc) ->
        exec ~init:J2.init ~nprocs:(pr * pc) ~check
          ~config:[ int "n" n; int "procs" (pr * pc); int "sweeps" sweeps ]
          (Printf.sprintf "%dx%d" pr pc)
          (J2.build ~n ~pr ~pc ~sweeps ~stage:J2.Halo ()))
      [ (1, 4); (4, 1); (2, 2) ]
  in
  let bytes v = (find grids v).stats.bytes in
  let at16 runs = List.assoc 16 (efficiency runs) in
  let makespans = List.map (fun (_, r) -> r.stats.makespan) halo in
  ( scaling "T7.a" vecadd @ scaling "T7.b" halo @ scaling "T7.c" fft
    @ List.map (row "T7.d") grids,
    [
      (at16 vecadd >= 0.85, "T7.a: vector-add efficiency at P=16 below 0.85");
      (at16 fft >= 0.70, "T7.c: FFT pipeline efficiency at P=16 below 0.70");
      ( List.fold_left Float.max 0.0 makespans
        <= 1.10 *. List.fold_left Float.min infinity makespans,
        "T7.b: Jacobi halo makespan varies by more than 10% across P" );
      ( bytes "2x2" < bytes "1x4" && bytes "2x2" < bytes "4x1",
        "T7.d: 2x2 tiles do not move fewer halo bytes than the strips" );
    ] )

(* ---- T8: redistribution by ownership transfer vs copy (§2.6) ---- *)

let t8 () =
  let nprocs = 4 in
  let decl arr_name dist =
    let layout =
      Xdp_dist.Layout.make ~shape:[ 16; 16; 16 ] ~dist
        ~grid:(Xdp_dist.Grid.linear nprocs)
    in
    Xdp.Ir.{ arr_name; layout; seg_shape = [ 16; 1; 1 ]; universal = false }
  in
  let a = decl "A" Dist.[ Star; Star; Block ] in
  let a2 = decl "A2" Dist.[ Star; Block; Star ] in
  let init name idx =
    if name = "A" then
      List.fold_left (fun acc i -> (acc *. 31.0) +. float_of_int i) 0.0 idx
    else 0.0
  in
  (* both must deliver A's values under the new layout *)
  let redist variant arr decls body =
    exec ~init ~nprocs ~config:[ int "n" 16; int "procs" nprocs ]
      ~check:(fun r ->
        let t = Exec.array r arr in
        let ok = ref true in
        Xdp_util.Box.iter
          (fun idx -> if Tensor.get t idx <> init "A" idx then ok := false)
          (Tensor.full_box t);
        !ok)
      variant
      Xdp.Ir.{ prog_name = variant; decls; body }
  in
  let own =
    redist "ownership transfer" "A" [ a ]
      (Xdp.Redistribute.gen ~decls:[ a ] ~array:"A" ~new_layout:a2.layout ())
  in
  let copy =
    redist "copy into A2" "A2" [ a; a2 ]
      (Xdp.Redistribute.gen_copy ~decls:[ a ] ~array:"A" ~into:"A2"
         ~new_layout:a2.layout ())
  in
  let partition = 16 * 16 * 16 / nprocs in
  ( storage "T8" partition [ own; copy ],
    [
      ( peak own.stats = partition && peak copy.stats = 2 * partition,
        "T8: peak storage is not 1.0x partition by ownership transfer, 2.0x \
         by copy" );
    ] )

(* ---- T9: background computation while awaiting (§2.3) ---- *)

let t9 () =
  let module O = Xdp_apps.Overlap in
  let producer_cost = 50000.0 and bg_cost = 2000.0 in
  let pairs =
    List.map
      (fun bg_units ->
        let want = O.expected_acc ~producer_cost ~bg_cost ~bg_units in
        let m variant =
          exec ~init:(O.init ~producer_cost ~bg_cost) ~nprocs:2
            ~config:
              [ num "producer_cost" producer_cost; num "bg_cost" bg_cost;
                int "bg_units" bg_units ]
            ~check:(fun r ->
              Float.abs (List.nth (cells ~nprocs:2 "ACC" r) 1 -. want) < 1e-6)
            (Printf.sprintf "bg units=%d" bg_units)
            (O.build ~nprocs:2 ~bg_units ~variant ())
        in
        let b = m O.Blocking and p = m O.Polling in
        ({ p with ok = p.ok && b.ok }, b.stats.makespan))
      [ 0; 5; 10; 20; 40; 80 ]
  in
  ( List.map
      (fun (p, b) ->
        let saved = b -. p.stats.makespan in
        row "T9" p
          ~keys:
            [ num "blocking_makespan" b; num "saved" saved;
              ("of_wait", ratio (saved /. producer_cost)) ])
      pairs,
    [
      ( List.for_all (fun (p, b) -> p.stats.makespan <= b) pairs,
        "T9: accessible()-polling is slower than blocking somewhere" );
    ] )

(* ---- T10: reduction data movement ---- *)

let t10 () =
  let module R = Xdp_apps.Reduce in
  let n = 64 and nprocs = 4 in
  let reduce stage =
    exec ~init:R.init ~nprocs ~config:[ int "n" n; int "procs" nprocs ]
      ~check:(fun r ->
        List.for_all
          (fun x -> Float.abs (x -. R.expected_sum ~n) < 1e-6)
          (cells ~nprocs "OUT" r))
      (R.stage_name stage)
      (R.build ~n ~nprocs ~stage ())
  in
  let naive = reduce R.Naive and partial = reduce R.Partial in
  ( ladder "T10" [ naive; partial ],
    [
      ( naive.stats.messages = n * nprocs
        && partial.stats.messages = (2 * nprocs) - 1,
        "T10: messages not n*P = 256 per-element broadcasts and 2P-1 = 7 \
         partial sums" );
    ] )

(* ---- the paper bench: every section into BENCH_paper.json ---- *)

let run () =
  Printf.printf
    "\n============ PAPER: Figure 1 and experiments T1-T10 ============\n\n%!";
  let rows, tripwires =
    List.split
      (List.map
         (fun section -> section ())
         [ Figures.fig1; t1; t2; t3; t4; t5; t6; t7; t8; t9; t10 ])
  in
  let rows = List.concat rows in
  let failed =
    List.filter
      (fun (r : Runs.row) -> List.assoc "identical" r.shared <> J.Bool true)
      rows
  in
  Runs.report ~bench:"paper" ~smoke:false
    ~title:"the paper's Figure 1 and claims T1-T10 on the simulated machine"
    rows;
  Runs.check ~bench:"paper" rows
    (( failed = [],
       "rows that do not match their reference: "
       ^ String.concat ", " (List.map (fun (r : Runs.row) -> r.label) failed) )
    :: List.concat tripwires)
