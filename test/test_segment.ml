(* Segmentation tests: tiling local partitions into compiler-chosen
   segments, including the Figure 2 and Figure 3 shapes. *)

open Xdp_dist
open Xdp_util

let layout shape dist grid = Layout.make ~shape ~dist ~grid

let test_fig2_a_segments () =
  (* A[1:4,1:8] ( *, BLOCK) over a 2-proc axis, segment shape (2,1):
     local partition is 4x4, so 2x4 = 8 segments of 2 elements. *)
  let l = layout [ 4; 8 ] [ Dist.Star; Dist.Block ] (Grid.linear 2) in
  let segs = Segment.tile l ~pid:0 ~seg_shape:[ 2; 1 ] in
  Alcotest.(check int) "#segments" 8 (List.length segs);
  Alcotest.(check int) "covers partition" 16 (Segment.total_elements segs);
  (* Paper's Figure 2 claims 4 segments of shape (2,1) for its 2x2
     grid where each proc's partition is 4x2. *)
  let l22 =
    layout [ 4; 8 ] [ Dist.Block; Dist.Block ] (Grid.make [ 2; 2 ])
  in
  let segs22 = Segment.tile l22 ~pid:3 ~seg_shape:[ 2; 1 ] in
  Alcotest.(check int) "2x2 grid: 2x4 partition -> 4 segs" 4
    (List.length segs22)

let test_fig2_b_segments () =
  (* B[1:16,1:16] (BLOCK, CYCLIC) over 2x2, segment shape (4,2): local
     partition is 8x8 (compressed), so 2*4 = 8 segments. *)
  let l = layout [ 16; 16 ] [ Dist.Block; Dist.Cyclic ] (Grid.make [ 2; 2 ]) in
  let segs = Segment.tile l ~pid:3 ~seg_shape:[ 4; 2 ] in
  Alcotest.(check int) "#segments" 8 (List.length segs);
  Alcotest.(check int) "covers partition" 64 (Segment.total_elements segs);
  (* Cyclic dim: global footprint is strided by 2. *)
  let s0 = List.hd segs in
  let tr2 = Box.dim s0.Segment.box 2 in
  Alcotest.(check bool) "stride 2 in cyclic dim" true
    (Triplet.to_string tr2 = "2:4:2" || Triplet.to_string tr2 = "1:3:2")

let test_segments_disjoint_cover () =
  List.iter
    (fun (l, seg_shape) ->
      List.iter
        (fun pid ->
          let segs = Segment.tile l ~pid ~seg_shape in
          List.iteri
            (fun i (a : Segment.desc) ->
              List.iteri
                (fun j (b : Segment.desc) ->
                  if i < j then
                    Alcotest.(check bool) "disjoint" true
                      (Box.disjoint a.box b.box))
                segs)
            segs;
          Alcotest.(check int) "total" (Layout.local_size l pid)
            (Segment.total_elements segs))
        (List.init (Layout.nprocs l) Fun.id))
    [
      (layout [ 4; 8 ] [ Dist.Star; Dist.Block ] (Grid.linear 4), [ 2; 2 ]);
      (layout [ 4; 8 ] [ Dist.Star; Dist.Block ] (Grid.linear 4), [ 4; 1 ]);
      (layout [ 12 ] [ Dist.Cyclic ] (Grid.linear 3), [ 2 ]);
      (layout [ 7 ] [ Dist.Block ] (Grid.linear 3), [ 2 ]);
    ]

let test_ragged_tail () =
  (* 7 elements over 3 procs BLOCK: P0 owns 3, tiled by 2 -> segs of
     2 and 1. *)
  let l = layout [ 7 ] [ Dist.Block ] (Grid.linear 3) in
  let segs = Segment.tile l ~pid:0 ~seg_shape:[ 2 ] in
  Alcotest.(check (list int)) "sizes"
    [ 2; 1 ]
    (List.map (fun (s : Segment.desc) -> Box.count s.box) segs)

let test_find_containing () =
  let l = layout [ 4; 8 ] [ Dist.Star; Dist.Block ] (Grid.linear 2) in
  let segs = Segment.tile l ~pid:1 ~seg_shape:[ 2; 2 ] in
  (match Segment.find_containing segs [ 3; 7 ] with
  | Some s -> Alcotest.(check bool) "contains" true (Box.mem [ 3; 7 ] s.box)
  | None -> Alcotest.fail "expected containing segment");
  Alcotest.(check bool) "not owned -> none" true
    (Segment.find_containing segs [ 3; 2 ] = None)

let test_straddling_block_cyclic_rejected () =
  (* CYCLIC(2) owned indices per proc are 1,2,5,6,...; chunks of 3
     straddle blocks and are not arithmetic progressions. *)
  let l = layout [ 16 ] [ Dist.Block_cyclic 2 ] (Grid.linear 2) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Segment.tile l ~pid:0 ~seg_shape:[ 3 ]);
       false
     with Invalid_argument _ -> true);
  (* chunks of 2 align with blocks: fine *)
  let segs = Segment.tile l ~pid:0 ~seg_shape:[ 2 ] in
  Alcotest.(check int) "aligned tiling works" 4 (List.length segs)

let test_segment_map_fig3 () =
  (* Figure 3(a): (BLOCK, BLOCK) over 2x2, P3 (pid 2 in our 0-based
     row-major order owns rows 3:4, cols 1:4), 2x1 segments. *)
  let l = layout [ 4; 8 ] [ Dist.Block; Dist.Block ] (Grid.make [ 2; 2 ]) in
  let m = Segment.segment_map l ~pid:2 ~seg_shape:[ 2; 1 ] in
  Alcotest.(check string) "fig3a 2x1 segs"
    "........\n........\n0123....\n0123...."
    m;
  let m2 = Segment.segment_map l ~pid:2 ~seg_shape:[ 1; 2 ] in
  Alcotest.(check string) "fig3a 1x2 segs"
    "........\n........\n0011....\n2233...."
    m2

let prop_tile_partitions =
  QCheck.Test.make ~name:"tiling partitions the local partition" ~count:100
    QCheck.(
      triple (int_range 1 16) (int_range 1 4) (int_range 1 4))
    (fun (n, procs, seg) ->
      let l = layout [ n ] [ Dist.Block ] (Grid.linear procs) in
      List.for_all
        (fun pid ->
          let segs = Segment.tile l ~pid ~seg_shape:[ seg ] in
          Segment.total_elements segs = Layout.local_size l pid)
        (List.init procs Fun.id))

(* The enumerating tiler [Segment.tile] replaced, kept as its oracle:
   list every owned index of a dimension, chunk the list, and parse
   each chunk back into a triplet. *)
let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let enumerated_tile layout ~pid ~seg_shape =
  let per_dim =
    List.mapi
      (fun d0 s ->
        let owned =
          List.concat_map Triplet.to_list
            (Layout.owned_triplets layout pid (d0 + 1))
        in
        List.map
          (fun chunk ->
            match Triplet.of_sorted_list chunk with
            | Some tr -> tr
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Segment.tile: segment extent %d in dim %d does not \
                      yield an arithmetic progression (tile within \
                      distribution blocks)"
                     s (d0 + 1)))
          (chunks s owned))
      seg_shape
  in
  if List.exists (fun l -> l = []) per_dim then []
  else
    let product =
      List.fold_right
        (fun triplets acc ->
          List.concat_map
            (fun tr -> List.map (fun rest -> tr :: rest) acc)
            triplets)
        per_dim [ [] ]
    in
    List.mapi (fun id ts -> { Segment.id; box = Box.make ts }) product

(* Rank 1-3 layouts over BLOCK, CYCLIC, CYCLIC(k) and undistributed
   dimensions (at least one distributed), a grid axis of 1-4
   processors per distributed dimension, and seg extents 1-7, which
   straddle CYCLIC(k) blocks often enough to exercise the error. *)
let gen_tiling =
  QCheck.Gen.(
    let dim =
      triple (int_range 1 13)
        (frequency
           [
             (3, return Dist.Block);
             (3, return Dist.Cyclic);
             (3, map (fun k -> Dist.Block_cyclic k) (int_range 1 4));
             (1, return Dist.Star);
           ])
        (pair (int_range 1 4) (int_range 1 7))
    in
    list_size (int_range 1 3) dim
    >|= fun dims ->
    let dims =
      if List.exists (fun (_, d, _) -> Dist.distributed d) dims then dims
      else
        match dims with
        | (n, _, x) :: rest -> (n, Dist.Block, x) :: rest
        | [] -> assert false
    in
    let shape = List.map (fun (n, _, _) -> n) dims in
    let dist = List.map (fun (_, d, _) -> d) dims in
    let axes =
      List.filter_map
        (fun (_, d, (p, _)) -> if Dist.distributed d then Some p else None)
        dims
    in
    let seg_shape = List.map (fun (_, _, (_, s)) -> s) dims in
    (Layout.make ~shape ~dist ~grid:(Grid.make axes), seg_shape))

let print_tiling (l, seg_shape) =
  Printf.sprintf "shape %s dist %s grid %s seg %s"
    (String.concat "x" (List.map string_of_int (Layout.shape l)))
    (String.concat "," (List.map Dist.to_string (Layout.dist l)))
    (String.concat "x" (List.map string_of_int (Grid.shape (Layout.grid l))))
    (String.concat "x" (List.map string_of_int seg_shape))

let prop_tile_matches_enumeration =
  QCheck.Test.make ~name:"closed-form tiling = enumerated tiling" ~count:500
    (QCheck.make ~print:print_tiling gen_tiling)
    (fun (l, seg_shape) ->
      let outcome f =
        match f l ~seg_shape with
        | descs ->
            Ok
              (List.map
                 (fun (d : Segment.desc) -> (d.id, Box.to_string d.box, d.box))
                 descs)
        | exception Invalid_argument m -> Error m
      in
      List.for_all
        (fun pid ->
          outcome (Segment.tile ~pid) = outcome (enumerated_tile ~pid))
        (List.init (Layout.nprocs l) Fun.id))

let () =
  Alcotest.run "segment"
    [
      ( "unit",
        [
          Alcotest.test_case "figure 2 A" `Quick test_fig2_a_segments;
          Alcotest.test_case "figure 2 B" `Quick test_fig2_b_segments;
          Alcotest.test_case "disjoint cover" `Quick
            test_segments_disjoint_cover;
          Alcotest.test_case "ragged tail" `Quick test_ragged_tail;
          Alcotest.test_case "find_containing" `Quick test_find_containing;
          Alcotest.test_case "straddling rejected" `Quick
            test_straddling_block_cyclic_rejected;
          Alcotest.test_case "segment map (Figure 3)" `Quick
            test_segment_map_fig3;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tile_partitions; prop_tile_matches_enumeration ] );
    ]
