(* EXEC: staged engine vs tree-walking interpreter (DESIGN.md §4c/§4d).

   Runs the three transfer-shaped apps (the §2.2 vector add, 2-D
   Jacobi with halo exchange, the §4 3-D FFT pipeline) and the
   sequential 1-D Jacobi sweep through the whole optimizer (the shape
   of perfbench's stencil workload) at several sizes under both
   execution engines, and measures real statement throughput
   (simulated statements per wall-clock second) and wall time per
   run.  Both engines are timed in alternation, so a burst of
   host load lands on both sides of the ratio.  Every pair is verified
   observably identical first — same tensors bit for bit, same stats
   record — so the speedup column never reports a wrong-answer win.
   The one-time staging cost (Precompile.compile) is measured per app
   and reported both as a column and as a fraction of the smallest
   compiled run's wall clock.  Each app row carries the
   superinstruction pass's statistics too (run-length histogram,
   turns saved by fusion, specialized/batched loops, inlined kernel
   sites).

   Tripwires: any engine pair that diverges fails the run.  In smoke
   mode (the `exec-smoke` leg of `dune runtest`) so do best per-app
   speedups below the fused floors — 8x on jacobi2d, 6x on jacobi1d,
   1.5x on fft3d.  The jacobi1d floor guards the stencil path: its
   n=1024 row measures 7.4-9.8x intact and 3.6-4.6x without the
   element inline caches (DESIGN.md §4d).  Each family's last smoke
   row is its floor row, and a burst of host load there would trip
   the floor on unchanged code, so those three rows time each side as
   the best of three alternating windows. *)

module Exec = Xdp_runtime.Exec
module Precompile = Xdp_runtime.Precompile
module J = Xdp_util.Jsonw

type app = {
  label : string;
  family : string;
  prog : Xdp.Ir.program;
  init : string -> int list -> float;
  nprocs : int;
}

let apps ~smoke =
  let nprocs = 4 in
  let vec n =
    {
      label = Printf.sprintf "vecadd naive misaligned n=%d" n;
      family = "vecadd";
      prog =
        Xdp_apps.Vecadd.build ~n ~nprocs ~dist_b:Xdp_dist.Dist.Cyclic
          ~stage:Xdp_apps.Vecadd.Naive ();
      init = Xdp_apps.Vecadd.init;
      nprocs;
    }
  and jac n sweeps =
    {
      label = Printf.sprintf "jacobi2d halo n=%d sweeps=%d" n sweeps;
      family = "jacobi2d";
      prog =
        Xdp_apps.Jacobi2d.build ~n ~pr:2 ~pc:2 ~sweeps
          ~stage:Xdp_apps.Jacobi2d.Halo ();
      init = Xdp_apps.Jacobi2d.init;
      nprocs;
    }
  and jac1 n sweeps =
    {
      label = Printf.sprintf "jacobi1d optimized n=%d sweeps=%d" n sweeps;
      family = "jacobi1d";
      prog =
        (Xdp.Compile.optimize ~nprocs
           (Xdp_apps.Jacobi.build ~n ~nprocs ~sweeps
              ~stage:Xdp_apps.Jacobi.Sequential ()))
          .compiled;
      init = Xdp_apps.Jacobi.init;
      nprocs;
    }
  and fft n seg_rows =
    {
      label = Printf.sprintf "fft3d pipelined n=%d sr=%d" n seg_rows;
      family = "fft3d";
      prog =
        Xdp_apps.Fft3d.build ~n ~nprocs ~seg_rows
          ~stage:Xdp_apps.Fft3d.Pipelined ();
      init = Xdp_apps.Fft3d.init;
      nprocs;
    }
  in
  (* vecadd is transfer-bound at every size (speedup near 1x by design
     — it measures that staging does not hurt such codes); the
     statement-dominated jacobi sweeps are where superinstructions
     earn their keep, and fft3d exercises the inlined-kernel path,
     whose marshalling-plan cache hits scale with seg_rows.  The 1-D
     Jacobi sweeps are batched loops, run as range kernels.  Each list
     ends its jacobi2d/jacobi1d/fft3d groups with a row large enough to
     clear the fused speedup floors (the tripwire rows). *)
  if smoke then
    [
      vec 8; vec 24; jac 8 1; jac 48 2; jac 128 3; jac1 64 2; jac1 1024 4;
      fft 4 2; fft 16 8;
    ]
  else
    [
      vec 64; vec 256; jac 64 3; jac 128 6; jac 192 6; jac1 4096 4;
      jac1 16384 8; fft 8 4; fft 16 8;
    ]

(* Measure one app: both engines timed in alternation and checked
   observably identical, plus one staging.  What kept statements out
   of superinstructions is printed, not guessed: the answer to "why is
   vecadd's speedup ~1x". *)
let bench_app ~min_time ~windows app =
  let run engine () =
    Exec.run ~engine ~init:app.init ~nprocs:app.nprocs app.prog
  in
  (* at least five reps a side, each after a full major collection, so
     one side's garbage is not collected on the other's clock; each
     side's best over [windows] such windows *)
  let window () =
    match
      Runs.time_all ~min_time ~runs:5 ~gc:true [ run `Interp; run `Compiled ]
    with
    | [ i; c ] -> (i, c)
    | _ -> assert false
  in
  let best (r, a) (_, b) = (r, Float.min a b) in
  let rec windows_from k ((i, c) as acc) =
    if k <= 1 then acc
    else
      let i', c' = window () in
      windows_from (k - 1) (best i i', best c c')
  in
  let (ri, interp_wall), (rc, compiled_wall) = windows_from windows (window ()) in
  let parity =
    ri.Exec.stats = rc.Exec.stats
    && List.for_all
         (fun (name, t) ->
           Xdp_util.Tensor.equal ~eps:0.0 t (Exec.array rc name))
         ri.Exec.arrays
  in
  let cp, compile_s =
    Runs.time ~min_time:(min_time /. 4.0) (fun () ->
        Precompile.compile ~cost:Xdp_sim.Costmodel.message_passing
          ~kernels:Xdp.Kernels.default ~scalars:[] app.prog)
  in
  let fs = Precompile.fusion_stats cp in
  if fs.fs_blockers <> [] then
    Printf.printf "    %-36s %s\n" app.label
      (String.concat ", "
         (List.map (fun (reason, n) -> Printf.sprintf "%s x%d" reason n)
            fs.fs_blockers));
  let stmts = ri.Exec.stats.Xdp_sim.Trace.statements in
  let rate wall = float_of_int stmts /. Float.max wall 1e-9 in
  let speedup = rate compiled_wall /. rate interp_wall in
  let { Exec.fused_turns; fused_statements; _ } = rc.Exec.fusion in
  let ints = List.map (fun (k, v) -> (k, J.Int v)) in
  ( Runs.row app.label ~config:[ ("family", J.Str app.family) ]
      ~wall_s:compiled_wall ~stats:rc.Exec.stats ~identical:parity
      [
        ("statements", J.Int stmts);
        ("interp_wall_s", J.Fixed (interp_wall, 6));
        ("interp_stmts_per_s", J.Fixed (rate interp_wall, 0));
        ("compiled_stmts_per_s", J.Fixed (rate compiled_wall, 0));
        ("speedup", J.Fixed (speedup, 2));
        ("compile_s", J.Fixed (compile_s, 6));
        ("fused_turns", J.Int fused_turns);
        ("fused_statements", J.Int fused_statements);
        ("turns_saved", J.Int (fused_statements - fused_turns));
        ( "fusion",
          J.Obj
            (ints
               [
                 ("fusable_statements", fs.fs_fusable);
                 ("fused_units", fs.fs_fused_units);
                 ("spec_loops", fs.fs_spec_loops);
                 ("batched_loops", fs.fs_batched_loops);
                 ("inlined_kernels", fs.fs_inlined_kernels);
               ]
            @ [
                ( "run_length_hist",
                  J.Arr
                    (List.map
                       (fun (len, count) -> J.Arr [ J.Int len; J.Int count ])
                       fs.fs_run_hist) );
                (* why the rest never fused: blocking reason per
                   unfusable statement *)
                ("blockers", J.Obj (ints fs.fs_blockers));
              ]) );
      ],
    parity,
    speedup,
    compile_s,
    compiled_wall )

let run ?(smoke = false) () =
  Printf.printf
    "\n============ EXEC: staged engine vs interpreter ============\n\n%!";
  let min_time = if smoke then 0.02 else 0.25 in
  let apps = apps ~smoke in
  let floors = [ ("jacobi2d", 8.0); ("jacobi1d", 6.0); ("fft3d", 1.5) ] in
  (* the last row of each floored family *)
  let floor_rows =
    List.filter_map
      (fun (family, _) ->
        List.fold_left
          (fun acc app -> if app.family = family then Some app.label else acc)
          None apps)
      floors
  in
  let windows app = if smoke && List.mem app.label floor_rows then 3 else 1 in
  Printf.printf "  unfused statements by blocking reason:\n";
  let results =
    List.map (fun app -> bench_app ~min_time ~windows:(windows app) app) apps
  in
  let rows = List.map (fun (row, _, _, _, _) -> row) results in
  Runs.report ~bench:"exec" ~smoke
    ~title:"statement throughput (simulated stmts per second)" rows;
  (* staging budget: one compile against the smallest compiled run *)
  let least f =
    List.fold_left (fun acc r -> Float.min acc (f r)) infinity results
  in
  let compile_s = least (fun (_, _, _, c, _) -> c)
  and small_wall = least (fun (_, _, _, _, w) -> w) in
  Printf.printf
    "\n  staging cost: %.3f ms per compile = %.1f%% of the smallest \
     compiled run (%.3f ms)\n"
    (1000.0 *. compile_s)
    (100.0 *. compile_s /. Float.max small_wall 1e-9)
    (1000.0 *. small_wall);
  let best family =
    List.fold_left2
      (fun acc app (_, _, speedup, _, _) ->
        if family = app.family then Float.max acc speedup else acc)
      0.0 apps results
  in
  let floor family x =
    ( best family >= x,
      Printf.sprintf "best %s speedup %.2fx (floor %gx)" family (best family) x
    )
  in
  Runs.check ~bench:"exec" rows
    (List.map2
       (fun app (_, parity, _, _, _) ->
         (parity, app.label ^ ": engines diverged"))
       apps results
    @
    if smoke then List.map (fun (family, x) -> floor family x) floors else [])
