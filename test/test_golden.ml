(* Golden tests against the paper's listings: the §2.2 vector-add
   translations (EX22) and the §4 3-D FFT pipeline (EX4).  Our passes
   must regenerate the code the paper prints (modulo loop-variable
   names and explicit parentheses). *)

let check_golden name expected actual =
  if String.trim expected <> String.trim actual then
    Alcotest.failf "%s:\n--- expected ---\n%s\n--- got ---\n%s" name expected
      actual

(* The listings our passes must print, pinned verbatim.  The paper
   bench reports each one's MD5 as a BENCH_paper.json row
   ([listing_md5], labelled as in [pinned]); the last test below checks
   the committed file against these texts. *)
let ex22_naive =
  {|do i = 1, 8
  iown(B[i]) : { B[i] -> }
  iown(A[i]) : {
    __T1[mypid] <- B[i]
    await(__T1[mypid]) : { A[i] = (A[i] + __T1[mypid]) }
  }
enddo|}

let ex22_optimized =
  {|do i = (((mypid - 1) * 2) + 1), (mypid * 2)
  A[i] = (A[i] + B[i])
enddo|}

let ex4_baseline =
  {|do k = 1, 4
  iown(A[*,*,k]) : {
    do i = 1, 4
      fft1D(A[i,*,k])
    enddo
  }
enddo
do k = 1, 4
  iown(A[*,*,k]) : {
    do j = 1, 4
      fft1D(A[*,j,k])
    enddo
  }
enddo
do p = 1, 4
  iown(A[*,*,p]) : {
    do j = 1, 4
      A[*,j,p] -=>
    enddo
    do j = p, p
      do q = 1, 4
        A[*,j,q] <=-
      enddo
    enddo
  }
enddo
do j = 1, 4
  await(A[*,j,*]) : {
    do i = 1, 4
      fft1D(A[i,j,*])
    enddo
  }
enddo|}

let ex4_localized =
  {|do i = 1, 4
  fft1D(A[i,*,mypid])
enddo
do j = 1, 4
  fft1D(A[*,j,mypid])
enddo
do j = 1, 4
  A[*,j,mypid] -=>
enddo
do q = 1, 4
  A[*,mypid,q] <=-
enddo
await(A[*,mypid,*]) : {
  do i = 1, 4
    fft1D(A[i,mypid,*])
  enddo
}|}

let ex4_pipelined =
  {|do i = 1, 4
  fft1D(A[i,*,mypid])
enddo
do j = 1, 4
  fft1D(A[*,j,mypid])
  A[*,j,mypid] -=>
enddo
do q = 1, 4
  A[*,mypid,q] <=-
enddo
do i = 1, 4
  await(A[i,mypid,*]) : { fft1D(A[i,mypid,*]) }
enddo|}

let ex4_fused_blocks =
  {|do k = (((mypid - 1) * 2) + 1), (mypid * 2)
  do i = 1, 8
    fft1D(A[i,*,k])
  enddo
enddo
do j = 1, 8
  do k = (((mypid - 1) * 2) + 1), (mypid * 2)
    fft1D(A[*,j,k])
  enddo
  do r = 1, 4
    A[(((r - 1) * 2) + 1):(r * 2),j,(((mypid - 1) * 2) + 1):(mypid * 2)] -=>
  enddo
enddo
do j = (((mypid - 1) * 2) + 1), (mypid * 2)
  do q = 1, 4
    do r = 1, 4
      A[(((r - 1) * 2) + 1):(r * 2),j,(((q - 1) * 2) + 1):(q * 2)] <=-
    enddo
  enddo
enddo
do j = (((mypid - 1) * 2) + 1), (mypid * 2)
  await(A[*,j,*]) : {
    do i = 1, 8
      fft1D(A[i,j,*])
    enddo
  }
enddo|}

let ex4_pipelined_blocks =
  {|do k = (((mypid - 1) * 2) + 1), (mypid * 2)
  do i = 1, 8
    fft1D(A[i,*,k])
  enddo
enddo
do j = 1, 8
  do k = (((mypid - 1) * 2) + 1), (mypid * 2)
    fft1D(A[*,j,k])
  enddo
  do r = 1, 4
    A[(((r - 1) * 2) + 1):(r * 2),j,(((mypid - 1) * 2) + 1):(mypid * 2)] -=>
  enddo
enddo
do j = (((mypid - 1) * 2) + 1), (mypid * 2)
  do q = 1, 4
    do r = 1, 4
      A[(((r - 1) * 2) + 1):(r * 2),j,(((q - 1) * 2) + 1):(q * 2)] <=-
    enddo
  enddo
enddo
do j = (((mypid - 1) * 2) + 1), (mypid * 2)
  do i = 1, 8
    await(A[i,j,*]) : { fft1D(A[i,j,*]) }
  enddo
enddo|}

let pinned =
  [
    ("EX22 naive", ex22_naive);
    ("EX22 optimized", ex22_optimized);
    ("EX4 baseline", ex4_baseline);
    ("EX4 localized", ex4_localized);
    ("EX4 pipelined", ex4_pipelined);
    ("EX4 fused n=8 seg_rows=2", ex4_fused_blocks);
    ("EX4 pipelined n=8 seg_rows=2", ex4_pipelined_blocks);
  ]

(* §2.2, first listing: the straightforward owner-computes translation. *)
let test_ex22_naive () =
  let p =
    Xdp_apps.Vecadd.build ~n:8 ~nprocs:4 ~stage:Xdp_apps.Vecadd.Naive ()
  in
  check_golden "§2.2 naive" ex22_naive
    (Xdp.Pp.stmts_to_string p.body)

(* §2.2, optimized: transfers eliminated, loop bounds adjusted so each
   reference is local, ownership test eliminated. *)
let test_ex22_optimized () =
  let p =
    Xdp_apps.Vecadd.build ~n:8 ~nprocs:4 ~stage:Xdp_apps.Vecadd.Localized ()
  in
  check_golden "§2.2 optimized" ex22_optimized
    (Xdp.Pp.stmts_to_string p.body)

(* §4, first listing: baseline FFT with guarded loops and the
   redistribution via ownership transfer. *)
let test_ex4_baseline () =
  let p =
    Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Baseline ()
  in
  check_golden "§4 baseline" ex4_baseline
    (Xdp.Pp.stmts_to_string p.body)

(* §4, second listing: after compute-rule elimination and collapse. *)
let test_ex4_localized () =
  let p =
    Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Localized ()
  in
  check_golden "§4 localized" ex4_localized
    (Xdp.Pp.stmts_to_string p.body)

(* §4, third listing: loop fusion pipelines the ownership sends and
   the await is sunk into the final loop. *)
let test_ex4_pipelined () =
  let p =
    Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Pipelined ()
  in
  check_golden "§4 pipelined" ex4_pipelined
    (Xdp.Pp.stmts_to_string p.body)

(* The §4 stages at two planes per processor and two-row segments:
   the dim-1 FFT nest is interchanged so each column is sent as soon
   as its planes are transformed. *)
let test_ex4_fused_blocks () =
  let p =
    Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~seg_rows:2
      ~stage:Xdp_apps.Fft3d.Fused ()
  in
  check_golden "§4 fused n=8 P=4 seg_rows=2" ex4_fused_blocks
    (Xdp.Pp.stmts_to_string p.body)

let test_ex4_pipelined_blocks () =
  let p =
    Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~seg_rows:2
      ~stage:Xdp_apps.Fft3d.Pipelined ()
  in
  check_golden "§4 pipelined n=8 P=4 seg_rows=2" ex4_pipelined_blocks
    (Xdp.Pp.stmts_to_string p.body)

(* The ownership-migration alternative of §2.2: moving each A[i] to
   B[i]'s owner instead of sending values.  Built with the eDSL and
   checked against the paper's fragment. *)
let test_ex22_ownership_variant_renders () =
  let open Xdp.Build in
  let iv = var "i" in
  let body =
    [
      loop "i" (i 1) (i 8)
        [
          iown (sec "A" [ at iv ]) @: [ send_owner_value (sec "A" [ at iv ]) ];
          iown (sec "B" [ at iv ]) @: [ recv_owner_value (sec "A" [ at iv ]) ];
          await (sec "A" [ at iv ])
          @: [ set "A" [ iv ] (elem "A" [ iv ] +: elem "B" [ iv ]) ];
        ];
    ]
  in
  check_golden "§2.2 ownership variant"
    {|do i = 1, 8
  iown(A[i]) : { A[i] -=> }
  iown(B[i]) : { A[i] <=- }
  await(A[i]) : { A[i] = (A[i] + B[i]) }
enddo|}
    (Xdp.Pp.stmts_to_string body)

(* ... and it actually runs correctly when B is misaligned, moving
   ownership of A to B's layout. *)
let test_ex22_ownership_variant_executes () =
  let open Xdp.Build in
  let nprocs = 4 and n = 8 in
  let grid = Xdp_dist.Grid.linear nprocs in
  let decls =
    [
      decl ~name:"A" ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Block ] ~grid
        ~seg_shape:[ 1 ] ();
      decl ~name:"B" ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Cyclic ] ~grid
        ~seg_shape:[ 1 ] ();
    ]
  in
  let iv = var "i" in
  let p =
    program ~name:"own-variant" ~decls
      [
        loop "i" (i 1) (i n)
          [
            (* self-transfers when owners coincide are legal XDP *)
            iown (sec "A" [ at iv ]) @: [ send_owner_value (sec "A" [ at iv ]) ];
            iown (sec "B" [ at iv ]) @: [ recv_owner_value (sec "A" [ at iv ]) ];
            await (sec "A" [ at iv ])
            @: [ set "A" [ iv ] (elem "A" [ iv ] +: elem "B" [ iv ]) ];
          ];
      ]
  in
  let r = Xdp_runtime.Exec.run ~init:Xdp_apps.Vecadd.init ~nprocs p in
  Alcotest.(check bool) "result correct" true
    (Xdp_util.Tensor.equal
       (Xdp_runtime.Exec.array r "A")
       (Xdp_apps.Vecadd.expected ~n));
  Alcotest.(check int) "every element's ownership moved" n
    r.stats.ownership_transfers;
  (* afterwards A's ownership sits with B's owners *)
  let bl =
    Xdp_dist.Layout.make ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Cyclic ]
      ~grid:(Xdp_dist.Grid.linear nprocs)
  in
  for idx = 1 to n do
    let want = Xdp_dist.Layout.owner bl [ idx ] in
    Alcotest.(check bool)
      (Printf.sprintf "A[%d] now with B's owner" idx)
      true
      (Xdp_symtab.Symtab.iown r.symtabs.(want) "A"
         (Xdp_util.Box.point [ idx ]))
  done

(* ---- determinism regression: simulator observables vs the seed ----

   The golden numbers below were captured from the seed implementation
   (sorted-list board, list-index marshalling) before the heap/queue
   board and offset-based extract/blit landed. The rewrite must be
   observationally identical: same makespan, message/byte counts, and
   the same delivery sequence — order, timestamps, endpoints, sizes —
   digest over the full trace. Equal-arrival ties must still break by
   global sequence number, or these digests change. *)

let digest_deliveries (tr : Xdp_sim.Trace.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Xdp_sim.Trace.event) ->
      match e with
      | Xdp_sim.Trace.Delivered { time; src; dst; name; kind; bytes } ->
          Buffer.add_string buf
            (Printf.sprintf "%.6f|%d|%d|%s|%s|%d\n" time src dst name kind
               bytes)
      | _ -> ())
    (Xdp_sim.Trace.events tr);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let check_run_golden name ~makespan ~messages ~bytes ~own ~digest
    (r : Xdp_runtime.Exec.result) =
  Alcotest.(check (float 1e-6)) (name ^ ": makespan") makespan r.stats.makespan;
  Alcotest.(check int) (name ^ ": messages") messages r.stats.messages;
  Alcotest.(check int) (name ^ ": bytes") bytes r.stats.bytes;
  Alcotest.(check int) (name ^ ": ownership transfers") own
    r.stats.ownership_transfers;
  Alcotest.(check int) (name ^ ": unmatched sends") 0 r.stats.unmatched_sends;
  Alcotest.(check int) (name ^ ": unmatched recvs") 0 r.stats.unmatched_recvs;
  Alcotest.(check string) (name ^ ": delivery trace digest") digest
    (digest_deliveries r.trace)

let test_determinism_fft3d_baseline () =
  let p =
    Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Baseline ()
  in
  check_run_golden "fft3d baseline n=8 P=4" ~makespan:12092.0 ~messages:32
    ~bytes:4608 ~own:32 ~digest:"d3f3271aefffa368cc7fe5340ce9c909"
    (Xdp_runtime.Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 ~trace:true p)

let test_determinism_fft3d_pipelined () =
  let p =
    Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~seg_rows:2
      ~stage:Xdp_apps.Fft3d.Pipelined ()
  in
  check_run_golden "fft3d pipelined n=8 P=4 seg_rows=2" ~makespan:26746.0
    ~messages:128 ~bytes:6144 ~own:128
    ~digest:"34aaae6d61bdc0170d026525e3000572"
    (Xdp_runtime.Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 ~trace:true p)

(* Engine parity on the pinned goldens: both the reference interpreter
   and the staged engine must hit the numbers above {e explicitly} —
   independent of what XDP_ENGINE made the default — so a regression
   in either engine (or a drift between them) is caught even when the
   CI matrix leg for the other engine is skipped. *)
let test_engine_parity_goldens () =
  List.iter
    (fun engine ->
      let p =
        Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Baseline ()
      in
      check_run_golden "fft3d baseline (both engines)" ~makespan:12092.0
        ~messages:32 ~bytes:4608 ~own:32
        ~digest:"d3f3271aefffa368cc7fe5340ce9c909"
        (Xdp_runtime.Exec.run ~engine ~init:Xdp_apps.Fft3d.init ~nprocs:4
           ~trace:true p);
      let farm =
        Xdp_apps.Farm.build ~ntasks:24 ~nprocs:4
          ~variant:Xdp_apps.Farm.Dynamic ()
      in
      check_run_golden "farm dynamic (both engines)" ~makespan:7818.5
        ~messages:28 ~bytes:672 ~own:0
        ~digest:"4da667f68045df714fdf8dc947fd8a2a"
        (Xdp_runtime.Exec.run ~engine
           ~init:(Xdp_apps.Farm.init ~skew:(Xdp_apps.Farm.Random 7) ~ntasks:24)
           ~nprocs:4 ~trace:true farm))
    [ `Interp; `Compiled ]

(* ---- scheduler tie-order golden: a digest over the whole
   pretty-printed trace (every event, not only deliveries) of the naive
   all-to-all at P=16, on both engines.  Many processors sit at equal
   clocks there, so any change in which processor the scheduler steps
   first reorders Send_init/Recv_init/Blocked/Unblocked events among
   them and moves this digest, even when every delivery (and so every
   digest above) stays put. *)
let test_full_trace_redist_naive () =
  let p = Xdp_apps.Redistflow.build ~n:32 ~nprocs:16 ~m:1 () in
  List.iter
    (fun engine ->
      let r =
        Xdp_runtime.Exec.run ~engine ~init:Xdp_apps.Redistflow.init ~nprocs:16
          ~trace:true p
      in
      Alcotest.(check string)
        (Printf.sprintf "redist naive P=16 full trace (%s)"
           (match engine with `Interp -> "interp" | `Compiled -> "compiled"))
        "458fc6e4da2ab2ae34fb58ae9d6fb032"
        (Digest.to_hex
           (Digest.string (Format.asprintf "%a" Xdp_sim.Trace.pp r.trace))))
    [ `Interp; `Compiled ]

(* ---- fusion-statistics golden: the superinstruction pass's region
   analysis is pinned by digest (Precompile.fusion_digest hashes the
   full fusion_stats record: statement counts, run-length histogram,
   specialized/batched loops, inlined kernel sites).  A drift here
   means the analysis started classifying abortable boundaries
   differently —
   exactly the kind of silent change the differential suite might
   survive by accident (both engines agreeing on a *wrong* region). *)
let test_fusion_digests () =
  let digest prog =
    let cp =
      Xdp_runtime.Precompile.compile ~cost:Xdp_sim.Costmodel.message_passing
        ~kernels:Xdp.Kernels.default ~scalars:[] prog
    in
    (Xdp_runtime.Precompile.fusion_digest cp,
     Xdp_runtime.Precompile.fusion_stats cp)
  in
  let d_fft, fs_fft =
    digest
      (Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~seg_rows:2
         ~stage:Xdp_apps.Fft3d.Pipelined ())
  in
  Alcotest.(check string) "fft3d pipelined: fusion digest"
    "d81e4678032879ccd4acd55329f86b05" d_fft;
  Alcotest.(check int) "fft3d pipelined: inlined kernel sites" 3
    fs_fft.Xdp_runtime.Precompile.fs_inlined_kernels;
  let d_jac, fs_jac =
    digest
      (Xdp_apps.Jacobi2d.build ~n:8 ~pr:2 ~pc:2 ~sweeps:1
         ~stage:Xdp_apps.Jacobi2d.Halo ())
  in
  Alcotest.(check string) "jacobi2d halo: fusion digest"
    "9de284aa6343c7f216ca0966421214a4" d_jac;
  Alcotest.(check int) "jacobi2d halo: batched loops" 6
    fs_jac.Xdp_runtime.Precompile.fs_batched_loops

(* ---- fault-injection golden: the unreliable network is part of the
   deterministic surface too.  Same plan seed, same drops, same
   retransmit schedule, same digest over the full network trace
   (deliveries + drops + retransmits + acks + dedups).  Captured from
   the first implementation of lib/net. *)

let digest_net_events (tr : Xdp_sim.Trace.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Xdp_sim.Trace.event) ->
      let add = Buffer.add_string buf in
      match e with
      | Xdp_sim.Trace.Delivered { time; src; dst; name; kind; bytes } ->
          add
            (Printf.sprintf "D|%.6f|%d|%d|%s|%s|%d\n" time src dst name kind
               bytes)
      | Xdp_sim.Trace.Dropped { time; src; dst; name; attempt; what } ->
          add
            (Printf.sprintf "X|%.6f|%d|%d|%s|%d|%s\n" time src dst name
               attempt what)
      | Xdp_sim.Trace.Retransmit { time; src; dst; name; attempt } ->
          add (Printf.sprintf "R|%.6f|%d|%d|%s|%d\n" time src dst name attempt)
      | Xdp_sim.Trace.Ack { time; src; dst; name } ->
          add (Printf.sprintf "A|%.6f|%d|%d|%s\n" time src dst name)
      | Xdp_sim.Trace.Duped { time; src; dst; name } ->
          add (Printf.sprintf "U|%.6f|%d|%d|%s\n" time src dst name)
      | _ -> ())
    (Xdp_sim.Trace.events tr);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_determinism_fft3d_faulty () =
  let p =
    Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~seg_rows:2
      ~stage:Xdp_apps.Fft3d.Pipelined ()
  in
  let fault =
    Xdp_net.Faultplan.make ~seed:42 ~drop:0.15 ~dup:0.05 ~jitter:0.3 ()
  in
  let r =
    Xdp_runtime.Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 ~trace:true
      ~fault p
  in
  let name = "fft3d pipelined n=8 P=4 drop=0.15" in
  Alcotest.(check (float 1e-5)) (name ^ ": makespan") 71438.024377
    r.stats.makespan;
  Alcotest.(check int) (name ^ ": messages") 128 r.stats.messages;
  Alcotest.(check int) (name ^ ": retransmits") 47 r.stats.retransmits;
  Alcotest.(check int) (name ^ ": acks") 157 r.stats.acks;
  Alcotest.(check int) (name ^ ": dups suppressed") 29 r.stats.dup_suppressed;
  Alcotest.(check int) (name ^ ": packets dropped") 49 r.stats.packets_dropped;
  Alcotest.(check int) (name ^ ": link failures") 0 r.stats.link_failures;
  Alcotest.(check string)
    (name ^ ": network trace digest")
    "1e26f4c0870c0c15885169d0b11dc36f"
    (digest_net_events r.trace);
  (* and the tensors still match the fault-free run *)
  let clean = Xdp_runtime.Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 p in
  Alcotest.(check bool) (name ^ ": tensors identical") true
    (Xdp_util.Tensor.equal
       (Xdp_runtime.Exec.array r "A")
       (Xdp_runtime.Exec.array clean "A"))

let test_determinism_farm_dynamic () =
  let p =
    Xdp_apps.Farm.build ~ntasks:24 ~nprocs:4 ~variant:Xdp_apps.Farm.Dynamic ()
  in
  check_run_golden "farm dynamic ntasks=24 P=4" ~makespan:7818.5 ~messages:28
    ~bytes:672 ~own:0 ~digest:"4da667f68045df714fdf8dc947fd8a2a"
    (Xdp_runtime.Exec.run
       ~init:(Xdp_apps.Farm.init ~skew:(Xdp_apps.Farm.Random 7) ~ntasks:24)
       ~nprocs:4 ~trace:true p)

(* ---- collective redistribution schedule golden: the planner's
   chosen schedule for the 8-proc redistflow all-to-all under a
   600-byte budget is pinned by a digest over Collective.describe
   (stable text: shape/window header plus every stage's move list).
   A drift means the search or the staging changed — which silently
   re-times every planned redistribution. *)
let test_redist_schedule_digest () =
  let moves =
    Xdp_dist.Redistribution.plan
      ~src:(Xdp_apps.Redistflow.layout_before ~n:16 ~m:2 ~nprocs:8)
      ~dst:(Xdp_apps.Redistflow.layout_after ~n:16 ~m:2 ~nprocs:8)
  in
  let sched, info =
    Xdp.Plan_redist.plan ~nprocs:8 ~budget:400 moves
  in
  Alcotest.(check string) "schedule digest" "04603e110ebe5db3c87d2abc22854f95"
    (Digest.to_hex (Digest.string (Xdp_dist.Collective.describe sched)));
  Alcotest.(check string) "shape" "ring"
    (Xdp_dist.Collective.shape_name info.Xdp.Plan_redist.shape);
  Alcotest.(check int) "window" 1 info.Xdp.Plan_redist.window;
  Alcotest.(check int) "stages" 7 info.Xdp.Plan_redist.stages;
  Alcotest.(check int) "moves" 56 info.Xdp.Plan_redist.moves;
  Alcotest.(check bool) "feasible" true info.Xdp.Plan_redist.feasible;
  Alcotest.(check bool) "est within budget" true
    (info.Xdp.Plan_redist.est_peak <= 400);
  Alcotest.(check bool) "naive over budget" true
    (info.Xdp.Plan_redist.naive_peak > 400)

(* The committed BENCH_paper.json's EX22/EX4 rows report the MD5s of
   exactly the texts pinned above, so the paper bench's [identical]
   column for them means "matches test_golden.ml". *)
let test_bench_rows_match_pins () =
  let module J = Xdp_util.Jsonw in
  let rows =
    match
      Xdp_batch.Json.parse
        (In_channel.with_open_bin "../BENCH_paper.json" In_channel.input_all)
    with
    | J.Obj fields -> (
        match List.assoc "rows" fields with J.Arr rows -> rows | _ -> [])
    | _ -> []
  in
  let field k = function
    | J.Obj fields -> List.assoc_opt k fields
    | _ -> None
  in
  List.iter
    (fun (label, text) ->
      match
        List.find_opt (fun r -> field "label" r = Some (J.Str label)) rows
      with
      | None -> Alcotest.failf "BENCH_paper.json has no row %S" label
      | Some r ->
          Alcotest.(check (option string)) label
            (Some (Digest.to_hex (Digest.string (String.trim text))))
            (match field "listing_md5" r with
            | Some (J.Str d) -> Some d
            | _ -> None))
    pinned

let () =
  Alcotest.run "golden"
    [
      ( "determinism vs seed",
        [
          Alcotest.test_case "fft3d baseline stats+trace" `Quick
            test_determinism_fft3d_baseline;
          Alcotest.test_case "fft3d pipelined stats+trace" `Quick
            test_determinism_fft3d_pipelined;
          Alcotest.test_case "farm dynamic stats+trace" `Quick
            test_determinism_farm_dynamic;
          Alcotest.test_case "both engines hit the goldens" `Quick
            test_engine_parity_goldens;
          Alcotest.test_case "redist naive P=16 full-trace tie order" `Quick
            test_full_trace_redist_naive;
          Alcotest.test_case "fusion statistics digests" `Quick
            test_fusion_digests;
          Alcotest.test_case "fft3d pipelined under faults stats+trace" `Quick
            test_determinism_fft3d_faulty;
          Alcotest.test_case "collective redistribution schedule digest" `Quick
            test_redist_schedule_digest;
        ] );
      ( "paper listings",
        [
          Alcotest.test_case "§2.2 naive" `Quick test_ex22_naive;
          Alcotest.test_case "§2.2 optimized" `Quick test_ex22_optimized;
          Alcotest.test_case "§2.2 ownership variant (render)" `Quick
            test_ex22_ownership_variant_renders;
          Alcotest.test_case "§2.2 ownership variant (execute)" `Quick
            test_ex22_ownership_variant_executes;
          Alcotest.test_case "§4 baseline" `Quick test_ex4_baseline;
          Alcotest.test_case "§4 localized" `Quick test_ex4_localized;
          Alcotest.test_case "§4 pipelined" `Quick test_ex4_pipelined;
          Alcotest.test_case "§4 fused, n=8 P=4 seg_rows=2" `Quick
            test_ex4_fused_blocks;
          Alcotest.test_case "§4 pipelined, n=8 P=4 seg_rows=2" `Quick
            test_ex4_pipelined_blocks;
          Alcotest.test_case "BENCH_paper.json listing rows match the pins"
            `Quick test_bench_rows_match_pins;
        ] );
    ]
