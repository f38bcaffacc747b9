(* Programmatic regeneration of the paper's Figures 1-4 and the §2.2 /
   §4 worked listings (experiment ids FIG1-FIG4, EX22, EX4). *)

open Xdp_dist
module Symtab = Xdp_symtab.Symtab

let hr title =
  Printf.printf "\n============ %s ============\n\n" title

(* ---- Figure 1: rules governing execution ---- *)

let fig1 () =
  hr "Figure 1: rules governing execution on processor p (conformance)";
  (* Each row of the paper's table, exercised as a miniature scenario
     through the real runtime.  The heavy lifting lives in
     test/test_semantics.ml; here we run compact probes and print the
     matrix the figure tabulates. *)
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
      if expect out then "PASS" else "FAIL"
    with e -> "FAIL: " ^ Printexc.to_string e
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
  Xdp_util.Table.print ~title:"Rules of Figure 1, checked against the runtime"
    ~header:[ "construct"; "paper's rule"; "conforms" ]
    ~align:[ Xdp_util.Table.Left; Xdp_util.Table.Left; Xdp_util.Table.Right ]
    (List.map (fun (c, d, verdict) -> [ c; d; verdict ]) rows);
  if List.exists (fun (_, _, verdict) -> verdict <> "PASS") rows then exit 1

(* ---- Figure 2: the run-time symbol table ---- *)

let fig2 () =
  hr "Figure 2: XDP run-time symbol table (processor P4 of a 2x2 grid)";
  (* A has one distributed dimension; the paper draws it on the same
     2x2 machine, so its BLOCK dimension maps onto a 2-extent axis and
     only grid row changes ownership of B. We print P4's table. *)
  let st = Symtab.create ~pid:3 () in
  Symtab.declare st ~name:"B"
    ~layout:
      (Layout.make ~shape:[ 16; 16 ] ~dist:[ Dist.Block; Dist.Cyclic ]
         ~grid:(Grid.make [ 2; 2 ]))
    ~seg_shape:[ 4; 2 ];
  Format.printf "%a@." Symtab.pp_table st;
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
