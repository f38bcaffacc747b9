(* Run-time symbol table tests (paper §3.1): segment states, the
   intersect-and-union iown() algorithm, ownership transfer at segment
   granularity, storage accounting, and the Figure 2 rendering. *)

open Xdp_dist
open Xdp_symtab
open Xdp_util

let layout shape dist grid = Layout.make ~shape ~dist ~grid

let mk_fig2 pid =
  let st = Symtab.create ~pid () in
  Symtab.declare st ~name:"A"
    ~layout:(layout [ 4; 8 ] [ Dist.Star; Dist.Block ] (Grid.linear 2))
    ~seg_shape:[ 2; 1 ];
  Symtab.declare st ~name:"B"
    ~layout:(layout [ 16; 16 ] [ Dist.Block; Dist.Cyclic ] (Grid.make [ 2; 2 ]))
    ~seg_shape:[ 4; 2 ];
  st

let box2 (r1, r2) (c1, c2) =
  Box.make [ Triplet.range r1 r2; Triplet.range c1 c2 ]

let test_declare_and_query () =
  let st = mk_fig2 0 in
  Alcotest.(check bool) "declared" true (Symtab.declared st "A");
  Alcotest.(check (list string)) "names" [ "A"; "B" ] (Symtab.names st);
  Alcotest.(check (list int)) "shape" [ 4; 8 ] (Symtab.global_shape st "A");
  Alcotest.(check bool) "undeclared raises" true
    (try
       ignore (Symtab.iown st "Z" (Box.of_shape [ 1 ]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "double declare raises" true
    (try
       Symtab.declare st ~name:"A"
         ~layout:(layout [ 4 ] [ Dist.Block ] (Grid.linear 2))
         ~seg_shape:[ 2 ];
       false
     with Invalid_argument _ -> true)

let test_iown_initial () =
  let st0 = mk_fig2 0 and st1 = mk_fig2 1 in
  (* P0 owns A columns 1..4 *)
  Alcotest.(check bool) "own left" true (Symtab.iown st0 "A" (box2 (1, 4) (1, 4)));
  Alcotest.(check bool) "not right" false
    (Symtab.iown st0 "A" (box2 (1, 4) (5, 8)));
  Alcotest.(check bool) "straddling false" false
    (Symtab.iown st0 "A" (box2 (1, 4) (4, 5)));
  Alcotest.(check bool) "P1 right" true
    (Symtab.iown st1 "A" (box2 (1, 4) (5, 8)));
  Alcotest.(check bool) "element" true
    (Symtab.iown st0 "A" (Box.point [ 2; 3 ]))

let test_iown_matches_layout_bruteforce () =
  (* The symbol-table algorithm must agree elementwise with the static
     layout at declaration time, for every processor. *)
  let l = layout [ 16; 16 ] [ Dist.Block; Dist.Cyclic ] (Grid.make [ 2; 2 ]) in
  List.iter
    (fun pid ->
      let st = Symtab.create ~pid () in
      Symtab.declare st ~name:"B" ~layout:l ~seg_shape:[ 4; 2 ];
      Box.iter
        (fun idx ->
          Alcotest.(check bool)
            (Printf.sprintf "P%d %s" pid
               (String.concat "," (List.map string_of_int idx)))
            (Layout.owns l pid idx)
            (Symtab.iown st "B" (Box.point idx)))
        (Box.make [ Triplet.range 1 16; Triplet.range 1 16 ]))
    [ 0; 1; 2; 3 ]

let test_states_and_receive () =
  let st = mk_fig2 0 in
  let mine = box2 (1, 2) (1, 1) in
  Alcotest.(check bool) "accessible initially" true
    (Symtab.accessible st "A" mine);
  Symtab.mark_recv_init st "A" mine;
  Alcotest.(check bool) "transitional" true
    (Symtab.section_state st "A" mine = State.Transitional);
  Alcotest.(check bool) "still owned" true (Symtab.iown st "A" mine);
  Alcotest.(check bool) "not accessible" false (Symtab.accessible st "A" mine);
  Symtab.mark_recv_complete st "A" mine;
  Alcotest.(check bool) "accessible again" true (Symtab.accessible st "A" mine);
  (* receive into unowned raises *)
  Alcotest.(check bool) "recv unowned raises" true
    (try
       Symtab.mark_recv_init st "A" (box2 (1, 2) (8, 8));
       false
     with Invalid_argument _ -> true)

let test_segment_granularity_of_recv_state () =
  (* Marking a sub-element transitional taints its whole segment: the
     implementation's coarsening, documented in DESIGN.md. *)
  let st = mk_fig2 0 in
  Symtab.mark_recv_init st "A" (Box.point [ 1; 1 ]);
  Alcotest.(check bool) "segment-mate transitional" true
    (Symtab.section_state st "A" (Box.point [ 2; 1 ]) = State.Transitional);
  Alcotest.(check bool) "other segment untouched" true
    (Symtab.accessible st "A" (Box.point [ 1; 2 ]))

let test_release_accept_roundtrip () =
  let src = mk_fig2 0 and dst = mk_fig2 1 in
  let piece = box2 (1, 2) (1, 1) in
  (* fill with data *)
  Symtab.set src "A" [ 1; 1 ] 3.5;
  Symtab.set src "A" [ 2; 1 ] 4.5;
  let released = Symtab.release src "A" piece in
  Alcotest.(check int) "one segment" 1 (List.length released);
  Alcotest.(check bool) "unowned after" false (Symtab.iown src "A" piece);
  (* transfer to P1 *)
  Symtab.expect_ownership dst "A" piece;
  Alcotest.(check bool) "owned (transitional) on init" true
    (Symtab.iown dst "A" piece);
  Alcotest.(check bool) "transitional on init" true
    (Symtab.section_state dst "A" piece = State.Transitional);
  let _, payload = List.hd released in
  Symtab.accept_ownership dst "A" piece (Some payload);
  Alcotest.(check bool) "accessible after" true (Symtab.accessible dst "A" piece);
  Alcotest.(check (float 0.0)) "value moved" 4.5 (Symtab.get dst "A" [ 2; 1 ])

let test_release_partial_segment_rejected () =
  let st = mk_fig2 0 in
  Alcotest.(check bool) "partial segment raises" true
    (try
       ignore (Symtab.release st "A" (Box.point [ 1; 1 ]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unowned release raises" true
    (try
       ignore (Symtab.release st "A" (box2 (1, 2) (8, 8)));
       false
     with Invalid_argument _ -> true)

let test_release_transitional_rejected () =
  let st = mk_fig2 0 in
  let piece = box2 (1, 2) (1, 1) in
  Symtab.mark_recv_init st "A" piece;
  Alcotest.(check bool) "transitional release raises" true
    (try
       ignore (Symtab.release st "A" piece);
       false
     with Invalid_argument _ -> true)

let test_expect_ownership_conflicts () =
  let st = mk_fig2 0 in
  Alcotest.(check bool) "already owned raises" true
    (try
       Symtab.expect_ownership st "A" (box2 (1, 2) (1, 1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unexpected accept raises" true
    (try
       Symtab.accept_ownership st "A" (box2 (1, 2) (8, 8)) None;
       false
     with Invalid_argument _ -> true)

let test_storage_accounting () =
  let st = mk_fig2 0 in
  let before = Symtab.allocated_elements st in
  Alcotest.(check int) "initial = local partitions" (16 + 64) before;
  let piece = box2 (1, 2) (1, 1) in
  ignore (Symtab.release st "A" piece);
  Alcotest.(check int) "freed on release" (before - 2)
    (Symtab.allocated_elements st);
  Alcotest.(check int) "peak unchanged" before (Symtab.peak_elements st);
  (* re-acquire: allocate again *)
  Symtab.expect_ownership st "A" piece;
  Symtab.accept_ownership st "A" piece None;
  Alcotest.(check int) "reallocated" before (Symtab.allocated_elements st)

let test_no_reuse_mode () =
  let st = Symtab.create ~pid:0 ~free_on_release:false () in
  Symtab.declare st ~name:"A"
    ~layout:(layout [ 8 ] [ Dist.Block ] (Grid.linear 2))
    ~seg_shape:[ 2 ];
  let before = Symtab.allocated_elements st in
  ignore (Symtab.release st "A" (Box.make [ Triplet.range 1 2 ]));
  Alcotest.(check int) "not freed" before (Symtab.allocated_elements st)

let test_read_write_box_across_segments () =
  let st = mk_fig2 0 in
  (* A's P0 partition is 4x4 with 2x1 segments; a 4x2 box spans 4 segs *)
  let b = box2 (1, 4) (1, 2) in
  Symtab.write_box st "A" b (Array.init 8 float_of_int);
  let back = Symtab.read_box st "A" b in
  Alcotest.(check (array (float 0.0))) "roundtrip"
    (Array.init 8 float_of_int) back;
  Alcotest.(check (float 0.0)) "placed row-major" 3.0
    (Symtab.get st "A" [ 2; 2 ])

let test_mylb_myub () =
  let st = mk_fig2 1 in
  let whole = Box.of_shape [ 4; 8 ] in
  Alcotest.(check (option int)) "mylb" (Some 5) (Symtab.mylb st "A" whole 2);
  Alcotest.(check (option int)) "myub" (Some 8) (Symtab.myub st "A" whole 2);
  Alcotest.(check (option int)) "none" None
    (Symtab.mylb st "A" (box2 (1, 4) (1, 4)) 2)

let test_fig2_rendering () =
  let st = mk_fig2 0 in
  let s = Format.asprintf "%a" Symtab.pp_table st in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
    [ "A"; "B"; "(4,8)"; "(16,16)"; "BLOCK"; "CYCLIC"; "segdesc"; "accessible" ]

(* Property: after any sequence of whole-segment releases, iown agrees
   with a model set of owned elements. *)
let prop_release_model =
  QCheck.Test.make ~name:"release tracks a model of owned elements"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 0 4) (int_range 0 3))
    (fun seg_ids ->
      let l = layout [ 8 ] [ Dist.Block ] (Grid.linear 2) in
      let st = Symtab.create ~pid:0 () in
      Symtab.declare st ~name:"A" ~layout:l ~seg_shape:[ 1 ];
      (* P0 owns 1..4 as four 1-element segments *)
      let owned = Array.make 4 true in
      List.iter
        (fun s ->
          if owned.(s) then begin
            ignore (Symtab.release st "A" (Box.point [ s + 1 ]));
            owned.(s) <- false
          end)
        seg_ids;
      List.for_all
        (fun i -> Symtab.iown st "A" (Box.point [ i + 1 ]) = owned.(i))
        [ 0; 1; 2; 3 ])

(* Property: the covering queries ([iown], [accessible],
   [section_state]) agree with the paper's linear intersect-and-union
   over every descriptor [Symtab.segments] lists, and each underlying
   query charges exactly [live_count] descriptor visits, on random
   layouts, segment shapes and transition sequences.  Scenario kind 0
   tiles an 8200-element array with one-element segments, which forces
   the bucket index to coarsen (more than 8192 buckets); CYCLIC layouts
   give strided descriptors spanning many buckets; ownership received
   into arbitrary boxes spans several; query boxes may be empty,
   strided or reach past the array; a universal array is queried
   alongside. *)
let prop_covering_reference =
  let reference segs box ~need_accessible =
    let parts =
      segs
      |> List.filter (fun (s : Symtab.seg) ->
             match s.status with
             | State.Unowned -> false
             | State.Transitional -> not need_accessible
             | State.Accessible -> true)
      |> List.map (fun (s : Symtab.seg) -> s.seg_box)
    in
    Box.covered_by ~parts box
  in
  let scenario seed =
    let rs = Random.State.make [| seed |] in
    let int lo hi = lo + Random.State.int rs (hi - lo + 1) in
    let pick l = List.nth l (Random.State.int rs (List.length l)) in
    let kind = int 0 4 in
    let shape, dist, grid, seg_shape =
      match kind with
      | 0 ->
          ( [ 8200 ],
            [ pick [ Dist.Block; Dist.Cyclic ] ],
            Grid.linear 16,
            [ 1 ] )
      | 1 | 2 ->
          let n = int 1 40 in
          ( [ n ],
            [ pick [ Dist.Block; Dist.Cyclic ] ],
            Grid.linear (int 1 4),
            [ int 1 5 ] )
      | _ ->
          let g = int 1 3 in
          let dist, grid =
            match pick [ Dist.Star; Dist.Block; Dist.Cyclic ] with
            | Dist.Star -> ([ Dist.Star; Dist.Block ], Grid.linear g)
            | d -> ([ d; Dist.Block ], Grid.make [ g; 1 ])
          in
          ([ int 1 12; int 1 12 ], dist, grid, [ int 1 4; int 1 4 ])
    in
    let l = layout shape dist grid in
    let pid = int 0 (Grid.nprocs grid - 1) in
    let st = Symtab.create ~pid () in
    Symtab.declare st ~name:"A" ~layout:l ~seg_shape;
    Symtab.declare_universal st ~name:"U"
      ~shape:(List.map (fun n -> n + 1) shape);
    (int, shape, st)
  in
  let random_box int shape =
    Box.make
      (List.map
         (fun n ->
           let lo = int 0 (n + 1) in
           Triplet.make ~lo ~hi:(int (lo - 2) (n + 1)) ~stride:(int 1 3))
         shape)
  in
  QCheck.Test.make ~name:"covering queries match linear intersect-and-union"
    ~count:150 QCheck.int (fun seed ->
      let int, shape, st = scenario seed in
      let ok = ref true in
      let check name box =
        let live = Symtab.live_count st name in
        let visits f =
          let v0 = Symtab.descriptor_visits st in
          let r = f () in
          (r, Symtab.descriptor_visits st - v0)
        in
        let io, vi = visits (fun () -> Symtab.iown st name box) in
        let ac, va = visits (fun () -> Symtab.accessible st name box) in
        let ss, vs = visits (fun () -> Symtab.section_state st name box) in
        let segs = Symtab.segments st name in
        let rio = reference segs box ~need_accessible:false
        and rac = reference segs box ~need_accessible:true in
        let rss =
          if not rio then State.Unowned
          else if rac then State.Accessible
          else State.Transitional
        in
        let queries = if ss = State.Unowned then 1 else 2 in
        if
          io <> rio || ac <> rac || ss <> rss || vi <> live || va <> live
          || vs <> queries * live
        then ok := false
      in
      let live_segs () =
        List.filter
          (fun (s : Symtab.seg) -> s.status <> State.Unowned)
          (Symtab.segments st "A")
      in
      let attempt f = try f () with Invalid_argument _ -> () in
      for _ = 1 to 25 do
        (match int 0 5 with
        | 0 -> (
            match live_segs () with
            | [] -> ()
            | segs ->
                let s = List.nth segs (int 0 (List.length segs - 1)) in
                attempt (fun () -> ignore (Symtab.release st "A" s.seg_box)))
        | 1 ->
            let b =
              Box.make
                (List.map
                   (fun n ->
                     let lo = int 1 n in
                     Triplet.make ~lo ~hi:(int lo n) ~stride:(int 1 2))
                   shape)
            in
            attempt (fun () -> Symtab.expect_ownership st "A" b)
        | 2 -> (
            match
              List.filter
                (fun (s : Symtab.seg) ->
                  s.status = State.Transitional && s.data = None)
                (live_segs ())
            with
            | [] -> ()
            | s :: _ ->
                attempt (fun () ->
                    Symtab.accept_ownership st "A" s.seg_box
                      (if int 0 1 = 0 then None
                       else Some (Array.make (Box.count s.seg_box) 1.0))))
        | 3 -> (
            match live_segs () with
            | [] -> ()
            | segs ->
                let s = List.nth segs (int 0 (List.length segs - 1)) in
                attempt (fun () -> Symtab.mark_recv_init st "A" s.seg_box))
        | 4 ->
            attempt (fun () ->
                Symtab.mark_recv_complete st "A" (random_box int shape))
        | _ ->
            attempt (fun () ->
                Symtab.release st "U" (Box.of_shape [ 1 ]) |> ignore));
        for _ = 1 to 4 do
          check "A" (random_box int shape);
          check "U" (random_box int (List.map (fun n -> n + 1) shape))
        done;
        (* whole-array and single-segment queries *)
        check "A" (Box.of_shape shape);
        (match live_segs () with
        | s :: _ -> check "A" s.seg_box
        | [] -> ());
        (* a rank mismatch charges one visit, then raises, when
           anything is live *)
        let live = Symtab.live_count st "A" in
        let v0 = Symtab.descriptor_visits st in
        let bad = Box.of_shape (List.map (fun _ -> 2) (1 :: shape)) in
        let raised =
          try
            ignore (Symtab.iown st "A" bad);
            false
          with Invalid_argument _ -> true
        in
        let dv = Symtab.descriptor_visits st - v0 in
        if raised <> (live > 0) || dv <> min live 1 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "symtab"
    [
      ( "unit",
        [
          Alcotest.test_case "declare/query" `Quick test_declare_and_query;
          Alcotest.test_case "initial iown" `Quick test_iown_initial;
          Alcotest.test_case "iown vs layout brute force" `Quick
            test_iown_matches_layout_bruteforce;
          Alcotest.test_case "receive state machine" `Quick
            test_states_and_receive;
          Alcotest.test_case "segment-granular states" `Quick
            test_segment_granularity_of_recv_state;
          Alcotest.test_case "release/accept roundtrip" `Quick
            test_release_accept_roundtrip;
          Alcotest.test_case "partial release rejected" `Quick
            test_release_partial_segment_rejected;
          Alcotest.test_case "transitional release rejected" `Quick
            test_release_transitional_rejected;
          Alcotest.test_case "ownership conflicts" `Quick
            test_expect_ownership_conflicts;
          Alcotest.test_case "storage accounting" `Quick
            test_storage_accounting;
          Alcotest.test_case "no-reuse mode" `Quick test_no_reuse_mode;
          Alcotest.test_case "read/write box" `Quick
            test_read_write_box_across_segments;
          Alcotest.test_case "mylb/myub" `Quick test_mylb_myub;
          Alcotest.test_case "Figure 2 rendering" `Quick test_fig2_rendering;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_release_model;
          QCheck_alcotest.to_alcotest prop_covering_reference;
        ] );
    ]
