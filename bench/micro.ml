(* Bechamel micro-benchmarks of the run-time structures (experiment
   MB): the costs §3.1 leaves open ("more efficient algorithms could
   be developed"): iown() queries against growing segment tables,
   symbol-table state updates, rendezvous matching, section algebra,
   the fft1D kernel and whole-program simulation rate. *)

open Bechamel
open Toolkit
module Symtab = Xdp_symtab.Symtab
module Board = Xdp_sim.Board

let symtab_with_segments nsegs =
  let st = Symtab.create ~pid:0 () in
  let layout =
    Xdp_dist.Layout.make ~shape:[ nsegs ] ~dist:[ Xdp_dist.Dist.Block ]
      ~grid:(Xdp_dist.Grid.linear 1)
  in
  Symtab.declare st ~name:"A" ~layout ~seg_shape:[ 1 ];
  st

let bench_iown nsegs =
  let st = symtab_with_segments nsegs in
  let box = Xdp_util.Box.make [ Xdp_util.Triplet.range 1 nsegs ] in
  Test.make
    ~name:(Printf.sprintf "iown(%d segs)" nsegs)
    (Staged.stage (fun () -> ignore (Symtab.iown st "A" box)))

let bench_recv_state () =
  let st = symtab_with_segments 16 in
  let box = Xdp_util.Box.make [ Xdp_util.Triplet.range 3 6 ] in
  Test.make ~name:"recv init+complete"
    (Staged.stage (fun () ->
         Symtab.mark_recv_init st "A" box;
         Symtab.mark_recv_complete st "A" box))

let bench_rendezvous () =
  Test.make ~name:"rendezvous match"
    (Staged.stage (fun () ->
         let b = Board.create Xdp_sim.Costmodel.message_passing in
         Board.post_recv b ~time:0.0 ~dst:1 ~name:"X" ~kind:Board.Value
           ~token:1;
         Board.post_send b ~time:0.0 ~src:0 ~name:"X" ~kind:Board.Value
           ~payload:[| 1.0 |] ~directed:None;
         ignore (Board.pop_delivery b)))

let bench_box_inter () =
  let a =
    Xdp_util.Box.make
      [ Xdp_util.Triplet.make ~lo:1 ~hi:64 ~stride:2;
        Xdp_util.Triplet.range 1 64 ]
  in
  let b =
    Xdp_util.Box.make
      [ Xdp_util.Triplet.make ~lo:3 ~hi:60 ~stride:3;
        Xdp_util.Triplet.range 17 32 ]
  in
  Test.make ~name:"Box.inter (2-D strided)"
    (Staged.stage (fun () -> ignore (Xdp_util.Box.inter a b)))

let bench_dht () =
  let buf = Array.init 64 (fun i -> sin (float_of_int i)) in
  Test.make ~name:"fft1D kernel (n=64)"
    (Staged.stage (fun () -> Xdp.Kernels.dht (Array.copy buf)))

let bench_interpreter () =
  let p =
    Xdp_apps.Vecadd.build ~n:32 ~nprocs:4 ~stage:Xdp_apps.Vecadd.Naive ()
  in
  Test.make ~name:"simulate vecadd naive n=32 P=4"
    (Staged.stage (fun () ->
         ignore
           (Xdp_runtime.Exec.run ~init:Xdp_apps.Vecadd.init ~nprocs:4 p)))

(* ---- MB-board: board scaling and marshalling macro-benchmarks ----

   Wall-clock and allocation measurements of the two simulator hot
   paths this repo optimized (heap-based message board, offset-based
   extract/blit), each against the preserved seed implementation
   (Board_reference / Box.iter loops), reported as BENCH_board.json
   rows so the trajectory can be tracked. *)

module Board_reference = Xdp_sim.Board_reference
module Tensor = Xdp_util.Tensor
module Box = Xdp_util.Box
module Triplet = Xdp_util.Triplet
module J = Xdp_util.Jsonw

module type BOARD = sig
  type t

  val create : Xdp_sim.Costmodel.t -> t

  val post_send :
    t ->
    time:float ->
    src:int ->
    name:string ->
    kind:Board.kind ->
    payload:float array ->
    directed:int list option ->
    unit

  val post_recv :
    t -> time:float -> dst:int -> name:string -> kind:Board.kind -> token:int -> unit

  val pop_delivery : t -> Board.delivery option
end

(* The farm-like stress pattern: many sends of a few section names pile
   up undirected, then receives drain them; every delivery stays in
   flight until the end, so the delivery queue reaches [nmsgs]. This is
   quadratic on the seed board (list append + pending scan + sorted
   insert) and O(n log n) on the heap board. *)
let board_workload (type a) (module B : BOARD with type t = a) ~nprocs ~nmsgs
    () =
  let b = B.create Xdp_sim.Costmodel.message_passing in
  let nnames = 8 in
  let names = Array.init nnames (Printf.sprintf "SEC[%d]") in
  for i = 0 to nmsgs - 1 do
    B.post_send b ~time:(float_of_int i) ~src:(i mod nprocs)
      ~name:names.(i mod nnames) ~kind:Board.Value
      ~payload:[| float_of_int i |] ~directed:None
  done;
  for i = 0 to nmsgs - 1 do
    B.post_recv b ~time:(float_of_int i) ~dst:(i mod nprocs)
      ~name:names.(i mod nnames) ~kind:Board.Value ~token:i
  done;
  let popped = ref 0 in
  let continue = ref true in
  while !continue do
    match B.pop_delivery b with
    | Some _ -> incr popped
    | None -> continue := false
  done;
  if !popped <> nmsgs then
    failwith
      (Printf.sprintf "board workload: expected %d deliveries, got %d" nmsgs
         !popped)

(* Minor-heap words allocated by [f] — the per-element [int list]
   allocations of the old marshalling loops land here. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let reference_extract t box =
  let buf = Array.make (Box.count box) 0.0 in
  let i = ref 0 in
  Box.iter
    (fun idx ->
      buf.(!i) <- Tensor.get t idx;
      incr i)
    box;
  buf

let reference_blit t box buf =
  let i = ref 0 in
  Box.iter
    (fun idx ->
      Tensor.set t idx buf.(!i);
      incr i)
    box

let scaling_run ~smoke =
  let nprocs = if smoke then 4 else 64 in
  let nmsgs = if smoke then 400 else 50_000 in
  let _, heap_s = Runs.time (board_workload (module Board) ~nprocs ~nmsgs) in
  let _, list_s =
    Runs.time (board_workload (module Board_reference) ~nprocs ~nmsgs)
  in
  let side = if smoke then 64 else 1024 in
  let t =
    Tensor.init [ side; side ] (function
      | [ i; j ] -> float_of_int ((i * side) + j)
      | _ -> 0.0)
  in
  let full = Tensor.full_box t in
  let strided =
    Box.make
      [ Triplet.make ~lo:1 ~hi:side ~stride:2; Triplet.range 1 side ]
  in
  let elems = Box.count full in
  (* best of four, the first doubling as warmup; a full major
     collection before each timed run keeps earlier runs' garbage
     (e.g. 8 MB result buffers) off its clock *)
  let best f = snd (Runs.time ~runs:4 ~gc:true f) in
  let per f = J.Fixed (minor_words_of f /. float_of_int elems, 6) in
  let buf = Tensor.extract t full in
  let versus ?identical label ~fast ~seed =
    Runs.row label ~config:[ ("elements", J.Int elems) ] ~wall_s:(best fast)
      ?identical
      [
        ("seed_s", J.Fixed (best seed, 6));
        ("seed_minor_words_per_elem", per seed);
        ("minor_words_per_elem", per fast);
      ]
  in
  Runs.report ~bench:"board" ~smoke
    ~title:"hot paths vs seed implementation (wall_s: the optimized one)"
    [
      Runs.row "board matchmaking"
        ~config:[ ("nprocs", J.Int nprocs); ("nmsgs", J.Int nmsgs) ]
        ~wall_s:heap_s
        [
          ("seed_s", J.Fixed (list_s, 6));
          ("speedup", J.Fixed (list_s /. Float.max heap_s 1e-9, 2));
        ];
      (* the strided differential checks extract against the seed loop *)
      versus "extract"
        ~identical:(Tensor.extract t strided = reference_extract t strided)
        ~fast:(fun () -> ignore (Tensor.extract t full))
        ~seed:(fun () -> ignore (reference_extract t full));
      versus "blit"
        ~fast:(fun () -> Tensor.blit t full buf)
        ~seed:(fun () -> reference_blit t full buf);
    ]

let all_tests () =
  Test.make_grouped ~name:"xdp" ~fmt:"%s %s"
    [
      bench_iown 4;
      bench_iown 64;
      bench_iown 512;
      bench_recv_state ();
      bench_rendezvous ();
      bench_box_inter ();
      bench_dht ();
      bench_interpreter ();
    ]

let run ?(smoke = false) () =
  Printf.printf
    "\n============ MB: run-time structure micro-benchmarks (Bechamel) \
     ============\n\n%!";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if smoke then 0.02 else 0.25))
      ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances (all_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  (* plain-text report: ns per run for the monotonic clock *)
  let rows = ref [] in
  Hashtbl.iter
    (fun instance_name tbl ->
      if instance_name = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun test_name ols_result ->
            let est =
              match Analyze.OLS.estimates ols_result with
              | Some (t :: _) -> Printf.sprintf "%.1f" t
              | _ -> "n/a"
            in
            rows := [ test_name; est ] :: !rows)
          tbl)
    results;
  Xdp_util.Table.print ~title:"MB: nanoseconds per operation (OLS estimate)"
    ~header:[ "operation"; "ns/run" ]
    (List.sort compare !rows);
  Printf.printf
    "\n============ MB-board: hot-path scaling vs seed implementation \
     ============\n\n%!";
  scaling_run ~smoke
