(* The quantitative experiments T1-T7: each table turns one of the
   paper's qualitative performance claims into measured rows on the
   simulated machine.  EXPERIMENTS.md records the expected shapes. *)

module Exec = Xdp_runtime.Exec
module Trace = Xdp_sim.Trace
module Table = Xdp_util.Table
open Runs

let hr title = Printf.printf "\n============ %s ============\n\n" title

(* ---- T1: the §2.2 optimization ladder ---- *)

let t1 () =
  hr "T1: vector add (n=64, P=4) through the §2.2 optimization ladder";
  List.iter
    (fun (dist_b, tag) ->
      let n = 64 and nprocs = 4 in
      let reference = Xdp_apps.Vecadd.expected ~n in
      let rows =
        List.filter_map
          (fun stage ->
            if stage = Xdp_apps.Vecadd.Sequential then None
            else
              let p = Xdp_apps.Vecadd.build ~n ~nprocs ~dist_b ~stage () in
              let _, row =
                run ~init:Xdp_apps.Vecadd.init ~nprocs
                  ~label:(Xdp_apps.Vecadd.stage_name stage)
                  ~check:("A", reference) p
              in
              Some row)
          Xdp_apps.Vecadd.all_stages
      in
      let base = List.hd rows in
      Table.print
        ~title:(Printf.sprintf "T1.%s: B distributed %s" tag
                  (Xdp_dist.Dist.to_string dist_b))
        ~header:metric_header
        (List.map (fun r -> metric_cells ~base r) rows))
    [ (Xdp_dist.Dist.Block, "a (aligned)"); (Xdp_dist.Dist.Cyclic, "b (misaligned)") ]

(* ---- T2: FFT pipeline overlap ---- *)

let t2 () =
  hr "T2: 3-D FFT (n=32, P=4): pipelining the redistribution (§4)";
  (* run on a network slow enough that the redistribution latency is
     worth hiding (alpha = 50000 cycles, beta = 2/byte) *)
  let n = 32 and nprocs = 4 in
  let cost =
    Xdp_sim.Costmodel.with_network Xdp_sim.Costmodel.message_passing
      ~alpha:50000.0 ~beta:2.0
  in
  let reference =
    Xdp_runtime.Seq.array
      (Xdp_runtime.Seq.run ~init:Xdp_apps.Fft3d.init
         (Xdp_apps.Fft3d.sequential ~n ~nprocs))
      "A"
  in
  let rows =
    List.map
      (fun stage ->
        let p = Xdp_apps.Fft3d.build ~n ~nprocs ~stage () in
        let r, row =
          run ~cost ~init:Xdp_apps.Fft3d.init ~nprocs
            ~label:(Xdp_apps.Fft3d.stage_name stage)
            ~check:("A", reference) p
        in
        let mean_finish =
          Array.fold_left ( +. ) 0.0 r.stats.Trace.finish
          /. float_of_int nprocs
        in
        (row, mean_finish))
      Xdp_apps.Fft3d.all_stages
  in
  let base, _ = List.hd rows in
  Table.print
    ~title:"T2: FFT optimization stages (guards | makespan | mean finish)"
    ~header:
      [ "variant"; "msgs"; "guards"; "makespan"; "speedup"; "mean finish";
        "idle"; "ok" ]
    (List.map
       (fun (r, mf) ->
         [
           r.variant;
           Table.cell_int r.stats.Trace.messages;
           Table.cell_int r.stats.Trace.guard_evals;
           Table.cell_float ~decimals:1 r.stats.Trace.makespan;
           Table.cell_ratio (speedup base r);
           Table.cell_float ~decimals:1 mf;
           Table.cell_pct (Trace.idle_fraction r.stats);
           (if r.verified then "yes" else "NO");
         ])
       rows)

(* ---- T3: segment granularity ---- *)

let t3 () =
  hr "T3: ownership-transfer granularity (FFT n=16, P=4, fused)";
  let n = 16 and nprocs = 4 in
  let cost =
    Xdp_sim.Costmodel.with_network Xdp_sim.Costmodel.message_passing
      ~alpha:20000.0 ~beta:1.0
  in
  let reference =
    Xdp_runtime.Seq.array
      (Xdp_runtime.Seq.run ~init:Xdp_apps.Fft3d.init
         (Xdp_apps.Fft3d.sequential ~n ~nprocs))
      "A"
  in
  let rows =
    List.map
      (fun seg_rows ->
        let p =
          Xdp_apps.Fft3d.build ~n ~nprocs ~seg_rows
            ~stage:Xdp_apps.Fft3d.Fused ()
        in
        let _, row =
          run ~cost ~init:Xdp_apps.Fft3d.init ~nprocs
            ~label:(Printf.sprintf "seg rows = %d" seg_rows)
            ~check:("A", reference) p
        in
        row)
      [ 16; 8; 4; 2; 1 ]
  in
  let base = List.hd rows in
  Table.print
    ~title:"T3: segment shape trades message count against pipelining"
    ~header:metric_header
    (List.map (fun r -> metric_cells ~base r) rows)

(* ---- T4: delayed communication binding ---- *)

let t4 () =
  hr "T4: delayed binding — one IL+XDP program, different machines";
  let n = 64 and nprocs = 4 and sweeps = 4 in
  let reference =
    Xdp_runtime.Seq.array
      (Xdp_runtime.Seq.run ~init:Xdp_apps.Jacobi.init
         (Xdp_apps.Jacobi.build ~n ~nprocs ~sweeps
            ~stage:Xdp_apps.Jacobi.Sequential ()))
      "A"
  in
  let progs =
    [
      ("jacobi elim", Xdp_apps.Jacobi.build ~n ~nprocs ~sweeps
          ~stage:Xdp_apps.Jacobi.Elim ());
      ("jacobi auto-halo", Xdp_apps.Jacobi.build ~n ~nprocs ~sweeps
          ~stage:Xdp_apps.Jacobi.Auto_halo ());
      ("jacobi halo", Xdp_apps.Jacobi.build ~n ~nprocs ~sweeps
          ~stage:Xdp_apps.Jacobi.Halo ());
    ]
  in
  let cms =
    [
      ("message_passing", Xdp_sim.Costmodel.message_passing);
      ("shared_address", Xdp_sim.Costmodel.shared_address);
      ("idealized", Xdp_sim.Costmodel.idealized);
    ]
  in
  Table.print ~title:"T4.a: same programs bound to different machine models"
    ~header:("program" :: List.map fst cms)
    (List.map
       (fun (label, p) ->
         label
         :: List.map
              (fun (_, cm) ->
                let _, row =
                  run ~cost:cm ~init:Xdp_apps.Jacobi.init ~nprocs ~label
                    ~check:("A", reference) p
                in
                Table.cell_float ~decimals:0 row.stats.Trace.makespan)
              cms)
       progs);
  (* vectorization benefit vs message latency: the halo advantage
     grows with alpha *)
  let alphas = [ 0.0; 50.0; 500.0; 2000.0; 10000.0 ] in
  Table.print
    ~title:"T4.b: halo-exchange advantage (elim / halo makespan) vs alpha"
    ~header:("alpha" :: [ "elim"; "halo"; "advantage" ])
    (List.map
       (fun alpha ->
         let cm =
           Xdp_sim.Costmodel.with_network Xdp_sim.Costmodel.message_passing
             ~alpha ~beta:0.5
         in
         let m label p =
           let _, row =
             run ~cost:cm ~init:Xdp_apps.Jacobi.init ~nprocs ~label
               ~check:("A", reference) p
           in
           row.stats.Trace.makespan
         in
         let e = m "elim" (List.assoc "jacobi elim" progs) in
         let h = m "halo" (List.assoc "jacobi halo" progs) in
         [
           Table.cell_float ~decimals:0 alpha;
           Table.cell_float ~decimals:0 e;
           Table.cell_float ~decimals:0 h;
           Table.cell_ratio (e /. h);
         ])
       alphas)

(* ---- T4.c: the 1993 machine catalogue ---- *)

let t4c () =
  let n = 64 and nprocs = 4 and sweeps = 4 in
  let reference =
    Xdp_runtime.Seq.array
      (Xdp_runtime.Seq.run ~init:Xdp_apps.Jacobi.init
         (Xdp_apps.Jacobi.build ~n ~nprocs ~sweeps
            ~stage:Xdp_apps.Jacobi.Sequential ()))
      "A"
  in
  let halo =
    Xdp_apps.Jacobi.build ~n ~nprocs ~sweeps ~stage:Xdp_apps.Jacobi.Halo ()
  in
  let fft =
    Xdp_apps.Fft3d.build ~n:16 ~nprocs ~stage:Xdp_apps.Fft3d.Fused ()
  in
  let fft_ref =
    Xdp_runtime.Seq.array
      (Xdp_runtime.Seq.run ~init:Xdp_apps.Fft3d.init
         (Xdp_apps.Fft3d.sequential ~n:16 ~nprocs))
      "A"
  in
  Table.print
    ~title:"T4.c: the same two programs across a 1993 machine catalogue \
            (stylized alpha/beta)"
    ~header:[ "machine"; "jacobi halo"; "fft fused" ]
    (List.map
       (fun (mname, cm) ->
         let m p check =
           let _, row = run ~cost:cm ~init:(fst check) ~nprocs
               ~label:mname ~check:(snd check) p in
           Table.cell_float ~decimals:0 row.stats.Trace.makespan
         in
         [
           mname;
           m halo (Xdp_apps.Jacobi.init, ("A", reference));
           m fft (Xdp_apps.Fft3d.init, ("A", fft_ref));
         ])
       Xdp_sim.Machines.all)

(* ---- T5: load balancing by ownership migration ---- *)

let t5 () =
  hr "T5: load balancing by data movement (§2.6-2.7)";
  let ntasks = 32 and nprocs = 4 in
  let skews =
    [
      Xdp_apps.Farm.Uniform;
      Xdp_apps.Farm.Linear;
      Xdp_apps.Farm.Quadratic;
      Xdp_apps.Farm.Front_loaded;
      Xdp_apps.Farm.Random 42;
    ]
  in
  List.iter
    (fun base ->
      Table.print
        ~title:
          (Printf.sprintf
             "T5 (task grain = %.0f flops): static owner-computes vs \
              dynamic ownership migration"
             base)
        ~header:[ "skew"; "static"; "st.idle"; "dynamic"; "dy.idle"; "gain" ]
        (List.map
           (fun skew ->
             let m variant =
               let p = Xdp_apps.Farm.build ~ntasks ~nprocs ~variant () in
               let r =
                 Exec.run
                   ~init:(Xdp_apps.Farm.init ~base ~skew ~ntasks)
                   ~nprocs p
               in
               (* verify work conservation *)
               let acc = Exec.array r "ACC" in
               let sum = ref 0.0 in
               for q = 1 to nprocs do
                 sum := !sum +. Xdp_util.Tensor.get acc [ q ]
               done;
               let want = Xdp_apps.Farm.total_work ~base ~skew ~ntasks () in
               if Float.abs (!sum -. want) > 1e-6 then
                 Printf.printf "!! farm lost work (%f vs %f)\n" !sum want;
               r.stats
             in
             let s = m Xdp_apps.Farm.Static in
             let d = m Xdp_apps.Farm.Dynamic in
             [
               Xdp_apps.Farm.skew_name skew;
               Table.cell_float ~decimals:0 s.Trace.makespan;
               Table.cell_pct (Trace.idle_fraction s);
               Table.cell_float ~decimals:0 d.Trace.makespan;
               Table.cell_pct (Trace.idle_fraction d);
               Table.cell_ratio (s.Trace.makespan /. d.Trace.makespan);
             ])
           skews))
    [ 200.0; 20000.0 ]

(* ---- T6: storage reuse after ownership send ---- *)

let t6 () =
  hr "T6: storage reuse when ownership is sent away (§2.6)";
  let n = 16 and nprocs = 4 in
  let p =
    Xdp_apps.Fft3d.build ~n ~nprocs ~stage:Xdp_apps.Fft3d.Localized ()
  in
  let peak free_on_release =
    let r = Exec.run ~init:Xdp_apps.Fft3d.init ~free_on_release ~nprocs p in
    Array.fold_left max 0 r.stats.Trace.peak_storage
  in
  let reuse = peak true and no_reuse = peak false in
  let partition = n * n * n / nprocs in
  Table.print
    ~title:"T6: peak per-processor storage during FFT redistribution \
            (elements)"
    ~header:[ "policy"; "peak storage"; "vs partition size" ]
    [
      [ "free on ownership send"; Table.cell_int reuse;
        Table.cell_ratio (float_of_int reuse /. float_of_int partition) ];
      [ "keep dead chunks"; Table.cell_int no_reuse;
        Table.cell_ratio (float_of_int no_reuse /. float_of_int partition) ];
    ]

(* ---- T7: scaling ---- *)

let t7 () =
  hr "T7: scaling with processor count";
  let procs = [ 2; 4; 8; 16 ] in
  Table.print ~title:"T7.a: vector add n=64, optimized (Bound stage)"
    ~header:[ "P"; "makespan"; "msgs"; "efficiency" ]
    (let base = ref None in
     List.map
       (fun nprocs ->
         let p =
           Xdp_apps.Vecadd.build ~n:64 ~nprocs ~stage:Xdp_apps.Vecadd.Bound ()
         in
         let _, row =
           run ~init:Xdp_apps.Vecadd.init ~nprocs ~label:"vecadd"
             ~check:("A", Xdp_apps.Vecadd.expected ~n:64) p
         in
         let t = row.stats.Trace.makespan in
         let eff =
           match !base with
           | None ->
               base := Some (t, nprocs);
               1.0
           | Some (t0, p0) ->
               t0 /. t *. float_of_int p0 /. float_of_int nprocs
         in
         [
           string_of_int nprocs;
           Table.cell_float ~decimals:1 t;
           Table.cell_int row.stats.Trace.messages;
           Table.cell_pct eff;
         ])
       procs);
  Table.print ~title:"T7.b: Jacobi halo n=64, 4 sweeps"
    ~header:[ "P"; "makespan"; "msgs"; "efficiency" ]
    (let base = ref None in
     List.map
       (fun nprocs ->
         let sweeps = 4 in
         let reference =
           Xdp_runtime.Seq.array
             (Xdp_runtime.Seq.run ~init:Xdp_apps.Jacobi.init
                (Xdp_apps.Jacobi.build ~n:64 ~nprocs ~sweeps
                   ~stage:Xdp_apps.Jacobi.Sequential ()))
             "A"
         in
         let p =
           Xdp_apps.Jacobi.build ~n:64 ~nprocs ~sweeps
             ~stage:Xdp_apps.Jacobi.Halo ()
         in
         let _, row =
           run ~init:Xdp_apps.Jacobi.init ~nprocs ~label:"halo"
             ~check:("A", reference) p
         in
         let t = row.stats.Trace.makespan in
         let eff =
           match !base with
           | None ->
               base := Some (t, nprocs);
               1.0
           | Some (t0, p0) ->
               t0 /. t *. float_of_int p0 /. float_of_int nprocs
         in
         [
           string_of_int nprocs;
           Table.cell_float ~decimals:1 t;
           Table.cell_int row.stats.Trace.messages;
           Table.cell_pct eff;
         ])
       procs);
  Table.print ~title:"T7.c: 3-D FFT n=16, pipelined"
    ~header:[ "P"; "makespan"; "msgs"; "ownership"; "efficiency" ]
    (let base = ref None in
     List.map
       (fun nprocs ->
         let n = 16 in
         let reference =
           Xdp_runtime.Seq.array
             (Xdp_runtime.Seq.run ~init:Xdp_apps.Fft3d.init
                (Xdp_apps.Fft3d.sequential ~n ~nprocs))
             "A"
         in
         let p =
           Xdp_apps.Fft3d.build ~n ~nprocs ~stage:Xdp_apps.Fft3d.Pipelined ()
         in
         let _, row =
           run ~init:Xdp_apps.Fft3d.init ~nprocs ~label:"fft"
             ~check:("A", reference) p
         in
         let t = row.stats.Trace.makespan in
         let eff =
           match !base with
           | None ->
               base := Some (t, nprocs);
               1.0
           | Some (t0, p0) ->
               t0 /. t *. float_of_int p0 /. float_of_int nprocs
         in
         [
           string_of_int nprocs;
           Table.cell_float ~decimals:1 t;
           Table.cell_int row.stats.Trace.messages;
           Table.cell_int row.stats.Trace.ownership_transfers;
           Table.cell_pct eff;
         ])
       procs)

(* ---- T8: redistribution by ownership transfer vs copy ---- *)

let t8 () =
  hr "T8 (ablation): redistribute by ownership transfer vs copy into a \
      second array";
  let shape = [ 16; 16; 16 ] and nprocs = 4 in
  let grid = Xdp_dist.Grid.linear nprocs in
  let src =
    Xdp_dist.Layout.make ~shape
      ~dist:[ Xdp_dist.Dist.Star; Xdp_dist.Dist.Star; Xdp_dist.Dist.Block ]
      ~grid
  in
  let dst =
    Xdp_dist.Layout.make ~shape
      ~dist:[ Xdp_dist.Dist.Star; Xdp_dist.Dist.Block; Xdp_dist.Dist.Star ]
      ~grid
  in
  let base_decl =
    Xdp.Ir.{ arr_name = "A"; layout = src; seg_shape = [ 16; 1; 1 ]; universal = false }
  in
  let init name idx =
    if name = "A" then
      List.fold_left (fun acc i -> (acc *. 31.0) +. float_of_int i) 0.0 idx
    else 0.0
  in
  let partition = 16 * 16 * 16 / nprocs in
  let ownership =
    let body =
      Xdp.Redistribute.gen ~decls:[ base_decl ] ~array:"A" ~new_layout:dst ()
    in
    Exec.run ~init ~nprocs
      Xdp.Ir.{ prog_name = "redist-own"; decls = [ base_decl ]; body }
  in
  let copy =
    let a2 = Xdp.Ir.{ arr_name = "A2"; layout = dst; seg_shape = [ 16; 1; 1 ]; universal = false } in
    let body =
      Xdp.Redistribute.gen_copy ~decls:[ base_decl ] ~array:"A" ~into:"A2"
        ~new_layout:dst ()
    in
    Exec.run ~init ~nprocs
      Xdp.Ir.{ prog_name = "redist-copy"; decls = [ base_decl; a2 ]; body }
  in
  (* verify both deliver the data under the new layout *)
  let check label r arr =
    let t = Exec.array r arr in
    Xdp_util.Box.iter
      (fun idx ->
        if Xdp_util.Tensor.get t idx <> init "A" idx then begin
          Printf.printf "!! %s: wrong value\n" label;
          exit 1
        end)
      (Xdp_util.Tensor.full_box t)
  in
  check "ownership" ownership "A";
  check "copy" copy "A2";
  let row label (r : Exec.result) =
    let peak = Array.fold_left max 0 r.stats.Trace.peak_storage in
    [
      label;
      Table.cell_int r.stats.Trace.messages;
      Table.cell_int r.stats.Trace.bytes;
      Table.cell_float ~decimals:0 r.stats.Trace.makespan;
      Table.cell_int peak;
      Table.cell_ratio (float_of_int peak /. float_of_int partition);
    ]
  in
  Table.print
    ~title:"T8: 16^3 array, (*,*,BLOCK) -> (*,BLOCK,*), P=4"
    ~header:[ "method"; "msgs"; "bytes"; "makespan"; "peak elems"; "vs partition" ]
    [ row "ownership transfer (-=>)" ownership; row "copy into A2 (->)" copy ]

(* ---- T7.d: decomposition shape for the 2-D stencil ---- *)

let t7d () =
  hr "T7.d: decomposition shape, 2-D Jacobi n=32, P=4, 4 sweeps";
  let n = 32 and sweeps = 4 in
  let reference =
    Xdp_runtime.Seq.array
      (Xdp_runtime.Seq.run ~init:Xdp_apps.Jacobi2d.init
         (Xdp_apps.Jacobi2d.build ~n ~pr:1 ~pc:1 ~sweeps
            ~stage:Xdp_apps.Jacobi2d.Sequential ()))
      "A"
  in
  Table.print ~title:"T7.d: strips vs tiles (surface-to-volume)"
    ~header:[ "grid"; "msgs"; "halo bytes"; "makespan"; "ok" ]
    (List.map
       (fun (pr, pc) ->
         let p =
           Xdp_apps.Jacobi2d.build ~n ~pr ~pc ~sweeps
             ~stage:Xdp_apps.Jacobi2d.Halo ()
         in
         let r, row =
           run ~init:Xdp_apps.Jacobi2d.init ~nprocs:(pr * pc)
             ~label:(Printf.sprintf "%dx%d" pr pc)
             ~check:("A", reference) p
         in
         ignore r;
         [
           row.variant;
           Table.cell_int row.stats.Trace.messages;
           Table.cell_int row.stats.Trace.bytes;
           Table.cell_float ~decimals:0 row.stats.Trace.makespan;
           (if row.verified then "yes" else "NO");
         ])
       [ (1, 4); (4, 1); (2, 2) ])

(* ---- T9: background computation while awaiting (§2.3) ---- *)

let t9 () =
  hr "T9: accessible() fills the communication wait with background work \
      (§2.3)";
  let producer_cost = 50000.0 and bg_cost = 2000.0 in
  Table.print
    ~title:"T9: blocking await vs accessible()-polling, P1 computes 50k \
            cycles then sends; P2 has N background units of 2k cycles"
    ~header:[ "bg units"; "blocking"; "polling"; "saved"; "of wait" ]
    (List.map
       (fun bg_units ->
         let m variant =
           let p = Xdp_apps.Overlap.build ~nprocs:2 ~bg_units ~variant () in
           let r =
             Exec.run
               ~init:(Xdp_apps.Overlap.init ~producer_cost ~bg_cost)
               ~nprocs:2 p
           in
           let want =
             Xdp_apps.Overlap.expected_acc ~producer_cost ~bg_cost ~bg_units
           in
           let got = Xdp_util.Tensor.get (Exec.array r "ACC") [ 2 ] in
           if Float.abs (got -. want) > 1e-6 then begin
             Printf.printf "!! overlap: wrong ACC\n";
             exit 1
           end;
           r.stats.Trace.makespan
         in
         let b = m Xdp_apps.Overlap.Blocking in
         let p = m Xdp_apps.Overlap.Polling in
         [
           string_of_int bg_units;
           Table.cell_float ~decimals:0 b;
           Table.cell_float ~decimals:0 p;
           Table.cell_float ~decimals:0 (b -. p);
           Table.cell_pct ((b -. p) /. producer_cost);
         ])
       [ 0; 5; 10; 20; 40; 80 ])

(* ---- T2.b: pipelining under a serializing NIC ---- *)

let t2b () =
  hr "T2.b: same FFT under a serializing NIC (sends queue at the sender)";
  let n = 32 and nprocs = 4 in
  let cost =
    Xdp_sim.Costmodel.serialized
      (Xdp_sim.Costmodel.with_network Xdp_sim.Costmodel.message_passing
         ~alpha:50000.0 ~beta:2.0)
  in
  let reference =
    Xdp_runtime.Seq.array
      (Xdp_runtime.Seq.run ~init:Xdp_apps.Fft3d.init
         (Xdp_apps.Fft3d.sequential ~n ~nprocs))
      "A"
  in
  let rows =
    List.map
      (fun stage ->
        let p = Xdp_apps.Fft3d.build ~n ~nprocs ~stage () in
        let _, row =
          run ~cost ~init:Xdp_apps.Fft3d.init ~nprocs
            ~label:(Xdp_apps.Fft3d.stage_name stage)
            ~check:("A", reference) p
        in
        row)
      Xdp_apps.Fft3d.all_stages
  in
  let base = List.hd rows in
  Table.print
    ~title:"T2.b: a burst of post-loop sends serializes; interleaved \
            (fused) sends hide the queueing in compute"
    ~header:metric_header
    (List.map (fun r -> metric_cells ~base r) rows)

(* ---- T10: reduction data movement ---- *)

let t10 () =
  hr "T10: global reduction strategies";
  let n = 64 and nprocs = 4 in
  let want = Xdp_apps.Reduce.expected_sum ~n in
  Table.print
    ~title:"T10: sum(A), n=64, P=4: broadcast-per-element lowering vs \
            mylb/myub partial sums"
    ~header:[ "strategy"; "msgs"; "bytes"; "makespan"; "ok" ]
    (List.map
       (fun stage ->
         let p = Xdp_apps.Reduce.build ~n ~nprocs ~stage () in
         let r = Exec.run ~init:Xdp_apps.Reduce.init ~nprocs p in
         let out = Exec.array r "OUT" in
         let ok =
           List.for_all
             (fun q ->
               Float.abs (Xdp_util.Tensor.get out [ q ] -. want) < 1e-6)
             (List.init nprocs (fun q -> q + 1))
         in
         [
           Xdp_apps.Reduce.stage_name stage;
           Table.cell_int r.stats.Trace.messages;
           Table.cell_int r.stats.Trace.bytes;
           Table.cell_float ~decimals:0 r.stats.Trace.makespan;
           (if ok then "yes" else "NO");
         ])
       [ Xdp_apps.Reduce.Naive; Xdp_apps.Reduce.Partial ])
