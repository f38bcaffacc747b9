(* Programmatic regeneration of the paper's Figures 1-4 and the §2.2 /
   §4 worked listings (experiment ids FIG1-FIG4, EX22, EX4).  FIG1's
   conformance rows, FIG2's and FIG4's counts and the listings' digests
   are rows of the paper bench (Experiments.run); [fig2] .. [ex4]
   print the figures and listings whole. *)

open Xdp_dist
module Symtab = Xdp_symtab.Symtab

let hr title =
  Printf.printf "\n============ %s ============\n\n" title

(* ---- Figure 1: rules governing execution ---- *)

let fig1 () =
  (* Each row of the paper's table, exercised as a miniature scenario
     through the real runtime: one BENCH_paper.json row per rule, whose
     [identical] column says the runtime conforms.  The heavy lifting
     lives in test/test_semantics.ml; these are compact probes. *)
  let open Xdp.Build in
  let grid = Grid.linear 2 in
  let decls =
    [
      decl ~name:"A" ~shape:[ 8 ] ~dist:[ Dist.Block ] ~grid ~seg_shape:[ 4 ] ();
      decl ~name:"T" ~shape:[ 2 ] ~dist:[ Dist.Block ] ~grid ~seg_shape:[ 1 ] ();
      decl ~name:"OUT" ~shape:[ 2 ] ~dist:[ Dist.Block ] ~grid ~seg_shape:[ 1 ] ();
    ]
  in
  let probe body expect =
    try
      let p = Xdp.Ir.{ prog_name = "fig1"; decls; body } in
      let r = Xdp_runtime.Exec.run ~init:(fun _ idx -> float_of_int (List.hd idx)) ~nprocs:2 p in
      let out q = Xdp_util.Tensor.get (Xdp_runtime.Exec.array r "OUT") [ q ] in
      (Some r.stats, if expect out then "PASS" else "FAIL")
    with e -> (None, "FAIL: " ^ Printexc.to_string e)
  in
  let rows =
    [
      ( "mypid", "returns the unique identifier of p",
        probe [ set "OUT" [ mypid ] mypid ] (fun out -> out 1 = 1.0 && out 2 = 2.0) );
      ( "mylb(X,d)", "smallest owned index, MAXINT if none",
        probe
          [ set "OUT" [ mypid ] (mylb (sec "A" [ all ]) 1);
            if_ (mylb (sec "A" [ slice (i 1) (i 4) ]) 1 =: i max_int)
              [ set "OUT" [ mypid ] (f 0.0) ] [] ]
          (fun out -> out 1 = 1.0 && out 2 = 0.0) );
      ( "myub(X,d)", "largest owned index, MININT if none",
        probe
          [ set "OUT" [ mypid ] (myub (sec "A" [ all ]) 1) ]
          (fun out -> out 1 = 4.0 && out 2 = 8.0) );
      ( "iown(X)", "true iff X owned by p",
        probe
          [ iown (sec "A" [ slice (i 1) (i 4) ]) @: [ set "OUT" [ mypid ] (f 1.0) ] ]
          (fun out -> out 1 = 1.0 && out 2 = 2.0) );
      ( "accessible(X)", "owned and no uncompleted receive",
        probe
          [
            (mypid =: i 2)
            @: [
                 recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 1) ]);
                 if_ (enot (accessible (sec "T" [ at mypid ])))
                   [ set "OUT" [ mypid ] (f 1.0) ] [];
               ];
            iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ];
          ]
          (fun out -> out 2 = 1.0) );
      ( "await(X)", "false if unowned, blocks till accessible",
        probe
          [
            (mypid =: i 2)
            @: [
                 recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 1) ]);
                 await (sec "T" [ at mypid ])
                 @: [ set "OUT" [ mypid ] (elem "T" [ mypid ]) ];
                 await (sec "A" [ slice (i 1) (i 4) ])
                 @: [ set "OUT" [ mypid ] (f (-1.0)) ];
               ];
            iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ];
          ]
          (fun out -> out 2 = 1.0) );
      ( "E ->", "initiate send of name and value",
        probe
          [
            iown (sec "A" [ at (i 5) ]) @: [ send (sec "A" [ at (i 5) ]) ];
            (mypid =: i 1)
            @: [
                 recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 5) ]);
                 await (sec "T" [ at mypid ])
                 @: [ set "OUT" [ mypid ] (elem "T" [ mypid ]) ];
               ];
          ]
          (fun out -> out 1 = 5.0) );
      ( "E -> S", "send to the named destinations",
        probe
          [
            iown (sec "A" [ at (i 5) ])
            @: [ send_to (sec "A" [ at (i 5) ]) [ i 1 ] ];
            (mypid =: i 1)
            @: [
                 recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 5) ]);
                 await (sec "T" [ at mypid ])
                 @: [ set "OUT" [ mypid ] (elem "T" [ mypid ]) ];
               ];
          ]
          (fun out -> out 1 = 5.0) );
      ( "E => / U <=", "ownership moves, value does not",
        probe
          [
            iown (sec "A" [ slice (i 1) (i 4) ])
            @: [ send_owner (sec "A" [ slice (i 1) (i 4) ]) ];
            (mypid =: i 2) @: [ recv_owner (sec "A" [ slice (i 1) (i 4) ]) ];
            (mypid =: i 2)
            @: [
                 await (sec "A" [ slice (i 1) (i 4) ])
                 @: [ set "OUT" [ mypid ] (elem "A" [ i 2 ] +: f 0.5) ];
               ];
          ]
          (fun out -> out 2 = 0.5) );
      ( "E -=> / U <=-", "ownership and value move",
        probe
          [
            iown (sec "A" [ slice (i 1) (i 4) ])
            @: [ send_owner_value (sec "A" [ slice (i 1) (i 4) ]) ];
            (mypid =: i 2)
            @: [ recv_owner_value (sec "A" [ slice (i 1) (i 4) ]) ];
            (mypid =: i 2)
            @: [
                 await (sec "A" [ slice (i 1) (i 4) ])
                 @: [ set "OUT" [ mypid ] (elem "A" [ i 2 ]) ];
               ];
          ]
          (fun out -> out 2 = 2.0) );
      ( "E <- X", "receive named value, blocks if E transitional",
        probe
          [
            iown (sec "A" [ at (i 5) ]) @: [ send (sec "A" [ at (i 5) ]);
                                             send (sec "A" [ at (i 6) ]) ];
            (mypid =: i 1)
            @: [
                 recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 5) ]);
                 (* second receive into the same cell must wait for the
                    first to complete *)
                 recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 6) ]);
                 await (sec "T" [ at mypid ])
                 @: [ set "OUT" [ mypid ] (elem "T" [ mypid ]) ];
               ];
          ]
          (fun out -> out 1 = 6.0) );
    ]
  in
  (* a failing row's [verdict] names the exception that failed it *)
  ( List.map
      (fun (construct, rule, (stats, verdict)) ->
        Runs.row ("FIG1 " ^ construct) ?stats ~identical:(verdict = "PASS")
          [ ("rule", Xdp_util.Jsonw.Str rule);
            ("verdict", Xdp_util.Jsonw.Str verdict) ])
      rows,
    [] )

(* ---- Figure 2: the run-time symbol table ---- *)

(* B on P4 of the 2x2 grid, as the paper draws it. *)
let fig2_b () =
  let st = Symtab.create ~pid:3 () in
  Symtab.declare st ~name:"B"
    ~layout:
      (Layout.make ~shape:[ 16; 16 ] ~dist:[ Dist.Block; Dist.Cyclic ]
         ~grid:(Grid.make [ 2; 2 ]))
    ~seg_shape:[ 4; 2 ];
  st

(* Figure 2's counts: B on P4 has 8 segments of 4x2 elements, with
   stride 2 in the CYCLIC dimension. *)
let fig2_rows () =
  let segs = Symtab.segments (fig2_b ()) "B" in
  let dims (s : Symtab.seg) = Xdp_util.Box.dims s.seg_box in
  let all f = List.for_all f segs in
  let shape =
    all (fun s -> List.map Xdp_util.Triplet.count (dims s) = [ 4; 2 ])
  and stride = all (fun s -> (List.nth (dims s) 1).stride = 2) in
  let ok = List.length segs = 8 && shape && stride in
  ( [
      Runs.row "FIG2 B on P4"
        ~config:[ ("grid", Xdp_util.Jsonw.Str "2x2") ]
        ~identical:ok
        [ ("segments", Xdp_util.Jsonw.Int (List.length segs));
          ("seg_4x2", Xdp_util.Jsonw.Bool shape);
          ("stride_2", Xdp_util.Jsonw.Bool stride) ];
    ],
    [ (ok, "FIG2: B on P4 is not 8 segments of 4x2 with stride 2") ] )

let fig2 () =
  hr "Figure 2: XDP run-time symbol table (processor P4 of a 2x2 grid)";
  (* A has one distributed dimension; the paper draws it on the same
     2x2 machine, so its BLOCK dimension maps onto a 2-extent axis and
     only grid row changes ownership of B. We print P4's table. *)
  Format.printf "%a@." Symtab.pp_table (fig2_b ());
  let st2 = Symtab.create ~pid:1 () in
  Symtab.declare st2 ~name:"A"
    ~layout:
      (Layout.make ~shape:[ 4; 8 ] ~dist:[ Dist.Star; Dist.Block ]
         ~grid:(Grid.make [ 2 ]))
    ~seg_shape:[ 2; 1 ];
  Format.printf "(and A on a processor of the distributed axis:)@.%a@."
    Symtab.pp_table st2;
  (* the run-time-filled fields change when ownership moves *)
  ignore
    (Symtab.release st2 "A"
       (Xdp_util.Box.make
          [ Xdp_util.Triplet.range 1 2; Xdp_util.Triplet.point 5 ]));
  Format.printf "after releasing segment A[1:2,5] (run-time update):@.%a@."
    Symtab.pp_table st2

(* ---- Figure 3: distributions and segmentations ---- *)

let fig3 () =
  hr "Figure 3: distributions and local segmentations of a 4x8 array \
      (P3's segments shown)";
  let bb = Layout.make ~shape:[ 4; 8 ] ~dist:[ Dist.Block; Dist.Block ]
      ~grid:(Grid.make [ 2; 2 ]) in
  let sb = Layout.make ~shape:[ 4; 8 ] ~dist:[ Dist.Star; Dist.Block ]
      ~grid:(Grid.linear 4) in
  let show title layout pid seg_shape =
    Printf.printf "%s, segments %s (digits = segment id, '.' = other \
                   processors):\n%s\n\n"
      title
      ("(" ^ String.concat "," (List.map string_of_int seg_shape) ^ ")")
      (Segment.segment_map layout ~pid ~seg_shape)
  in
  Printf.printf "ownership under (BLOCK, BLOCK) over 2x2:\n%s\n\n"
    (Layout.ownership_map bb);
  show "(BLOCK, BLOCK), P3" bb 2 [ 2; 1 ];
  show "(BLOCK, BLOCK), P3" bb 2 [ 1; 2 ];
  Printf.printf "ownership under (*, BLOCK) over 1x4:\n%s\n\n"
    (Layout.ownership_map sb);
  show "(*, BLOCK), P3" sb 2 [ 2; 2 ];
  show "(*, BLOCK), P3" sb 2 [ 4; 1 ]

(* ---- Figure 4: the 3-D FFT redistribution ---- *)

(* Figure 4's plan at n=4, P=4: 12 moves carry 48 elements, and the 16
   on the diagonal stay put. *)
let fig4_rows () =
  let n = 4 and nprocs = 4 in
  let src = Xdp_apps.Fft3d.layout_before ~n ~nprocs
  and dst = Xdp_apps.Fft3d.layout_after ~n ~nprocs in
  let plan = Redistribution.plan ~src ~dst in
  let moves = List.length plan
  and moved = Redistribution.volume plan
  and stationary = Redistribution.stationary ~src ~dst in
  let ok = moves = 12 && moved = 48 && stationary = 16 in
  let int k v = (k, Xdp_util.Jsonw.Int v) in
  ( [
      Runs.row "FIG4 plan"
        ~config:[ int "n" n; int "procs" nprocs ]
        ~identical:ok
        [ int "moves" moves; int "moved" moved; int "stationary" stationary ];
    ],
    [ (ok, "FIG4: the plan is not 12 moves, 48 elements moved, 16 stay") ] )

let fig4 () =
  hr "Figure 4: 3-D FFT data layout before and after redistribution";
  let n = 4 and nprocs = 4 in
  let before = Xdp_apps.Fft3d.layout_before ~n ~nprocs in
  let after = Xdp_apps.Fft3d.layout_after ~n ~nprocs in
  Printf.printf "A[1:%d,1:%d,1:%d] initially %s:\n" n n n
    (Layout.to_string before);
  List.iter
    (fun pid ->
      Printf.printf "  P%d owns %s\n" (pid + 1)
        (String.concat " + "
           (List.map Xdp_util.Box.to_string (Layout.owned_boxes before pid))))
    (List.init nprocs Fun.id);
  Printf.printf "\nredistributed to %s:\n" (Layout.to_string after);
  List.iter
    (fun pid ->
      Printf.printf "  P%d owns %s\n" (pid + 1)
        (String.concat " + "
           (List.map Xdp_util.Box.to_string (Layout.owned_boxes after pid))))
    (List.init nprocs Fun.id);
  let plan = Redistribution.plan ~src:before ~dst:after in
  Printf.printf "\ntransfer plan (%d moves, %d elements, %d stay put):\n"
    (List.length plan)
    (Redistribution.volume plan)
    (Redistribution.stationary ~src:before ~dst:after);
  List.iter
    (fun m -> Format.printf "  %a@." Redistribution.pp_move m)
    plan

(* ---- the worked listings ---- *)

(* The listings test/test_golden.ml pins, each with the MD5 of its
   pinned text (trimmed); test_golden checks that its texts hash to
   the [listing_md5] these rows report. *)
let listing_rows () =
  let vec stage = Xdp_apps.Vecadd.build ~n:8 ~nprocs:4 ~stage () in
  let fft ?seg_rows n stage =
    Xdp_apps.Fft3d.build ~n ~nprocs:4 ?seg_rows ~stage ()
  in
  let rows =
    List.map
      (fun (label, (p : Xdp.Ir.program), pinned) ->
        let md5 =
          Digest.to_hex
            (Digest.string (String.trim (Xdp.Pp.stmts_to_string p.body)))
        in
        (label, md5 = pinned, md5))
      [
        ( "EX22 naive",
          vec Xdp_apps.Vecadd.Naive,
          "b60d332c61ff752edabbdbe6d529d6d9" );
        ( "EX22 optimized",
          vec Xdp_apps.Vecadd.Localized,
          "c29e340843525ef63b08e821001a43a6" );
        ( "EX4 baseline",
          fft 4 Xdp_apps.Fft3d.Baseline,
          "816b10c14899033977c76757c5bb7e02" );
        ( "EX4 localized",
          fft 4 Xdp_apps.Fft3d.Localized,
          "08980f344bfaa0e95e83ff62bd9c2209" );
        ( "EX4 pipelined",
          fft 4 Xdp_apps.Fft3d.Pipelined,
          "2a780c9987beaa3ef68214b8ee609102" );
        ( "EX4 fused n=8 seg_rows=2",
          fft ~seg_rows:2 8 Xdp_apps.Fft3d.Fused,
          "df2025529c78d45f9b6d1929cbb9fe39" );
        ( "EX4 pipelined n=8 seg_rows=2",
          fft ~seg_rows:2 8 Xdp_apps.Fft3d.Pipelined,
          "ca0191f83aace9b1e1382443539a550a" );
      ]
  in
  let differ = List.filter (fun (_, ok, _) -> not ok) rows in
  ( List.map
      (fun (label, ok, md5) ->
        Runs.row label ~identical:ok
          [ ("listing_md5", Xdp_util.Jsonw.Str md5) ])
      rows,
    [
      ( differ = [],
        "EX22/EX4: listings that differ from the text test_golden.ml pins: "
        ^ String.concat ", " (List.map (fun (l, _, _) -> l) differ) );
    ] )

let ex22 () =
  hr "§2.2 worked example: machine-generated IL+XDP listings";
  List.iter
    (fun stage ->
      let p = Xdp_apps.Vecadd.build ~n:8 ~nprocs:4 ~stage () in
      Printf.printf "--- %s ---\n%s\n"
        (Xdp_apps.Vecadd.stage_name stage)
        (Xdp.Pp.program_to_string p))
    [ Xdp_apps.Vecadd.Naive; Xdp_apps.Vecadd.Elim; Xdp_apps.Vecadd.Localized ]

let ex4 () =
  hr "§4 worked example: machine-generated FFT pipeline listings";
  List.iter
    (fun stage ->
      let p = Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage () in
      Printf.printf "--- %s ---\n%s\n"
        (Xdp_apps.Fft3d.stage_name stage)
        (Xdp.Pp.program_to_string p))
    Xdp_apps.Fft3d.all_stages
