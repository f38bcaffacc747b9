open Ir
open Build
open Xdp_util

let sel_of_box box =
  List.map
    (fun tr ->
      let lo = Triplet.first tr and hi = Triplet.last tr in
      if lo = hi then at (i lo)
      else
        let st = tr.Triplet.stride in
        if st = 1 then slice (i lo) (i hi) else slice3 (i lo) (i hi) (i st))
    (Box.dims box)

let split_by_segments layout seg_shape src box =
  let segs = Xdp_dist.Segment.tile layout ~pid:src ~seg_shape in
  List.filter_map
    (fun (s : Xdp_dist.Segment.desc) ->
      match Box.inter s.box box with
      | Some b when not (Box.is_empty b) -> Some b
      | _ -> None)
    segs

let gen_info ~decls ~array ~new_layout ?(granularity = `Pairwise)
    ?(strategy = `Naive) () =
  let d =
    match List.find_opt (fun d -> d.arr_name = array) decls with
    | Some d -> d
    | None -> invalid_arg ("Redistribute.gen: undeclared array " ^ array)
  in
  let moves = Xdp_dist.Redistribution.plan ~src:d.layout ~dst:new_layout in
  let pieces =
    List.concat_map
      (fun (m : Xdp_dist.Redistribution.move) ->
        let boxes =
          match granularity with
          | `Pairwise -> [ m.box ]
          | `Segment -> split_by_segments d.layout d.seg_shape m.src m.box
        in
        List.map (fun b -> (m.src, m.dst, b)) boxes)
      moves
  in
  match strategy with
  | `Naive ->
      let sends =
        List.map
          (fun (_, _, box) ->
            let s = sec array (sel_of_box box) in
            iown s @: [ send_owner_value s ])
          pieces
      in
      let recvs =
        List.map
          (fun (_, dst, box) ->
            let s = sec array (sel_of_box box) in
            (mypid =: i (dst + 1)) @: [ recv_owner_value s ])
          pieces
      in
      (sends @ recvs, None)
  | `Collectives { Plan_redist.peak_budget } ->
      let moves =
        List.map
          (fun (src, dst, box) -> { Xdp_dist.Redistribution.src; dst; box })
          pieces
      in
      let sched, info =
        Plan_redist.plan
          ~nprocs:(Xdp_dist.Layout.nprocs new_layout)
          ~budget:peak_budget moves
      in
      (Plan_redist.lower ~array sched, Some info)

let gen ~decls ~array ~new_layout ?granularity ?strategy () =
  fst (gen_info ~decls ~array ~new_layout ?granularity ?strategy ())

(* Nested literal-bound loops copying [src_arr] to [dst_arr] over the
   elements of [box]. *)
let copy_loops ~src_arr ~dst_arr box =
  let dims = Box.dims box in
  let vars = List.mapi (fun d _ -> Printf.sprintf "__c%d" (d + 1)) dims in
  let idx_exprs = List.map var vars in
  let inner = set dst_arr idx_exprs (elem src_arr idx_exprs) in
  List.fold_right2
    (fun v tr body ->
      loop_step v
        (i (Triplet.first tr))
        (i (Triplet.last tr))
        (i tr.Triplet.stride) [ body ])
    vars dims inner

let gen_copy ~decls ~array ~into ~new_layout () =
  let d =
    match List.find_opt (fun d -> d.arr_name = array) decls with
    | Some d -> d
    | None -> invalid_arg ("Redistribute.gen_copy: undeclared array " ^ array)
  in
  let old_layout = d.layout in
  let nprocs = Xdp_dist.Layout.nprocs old_layout in
  let moves = Xdp_dist.Redistribution.plan ~src:old_layout ~dst:new_layout in
  let sends =
    List.map
      (fun (m : Xdp_dist.Redistribution.move) ->
        let s = sec array (sel_of_box m.box) in
        iown s @: [ send_to s [ i (m.dst + 1) ] ])
      moves
  in
  let recvs =
    List.map
      (fun (m : Xdp_dist.Redistribution.move) ->
        (mypid =: i (m.dst + 1))
        @: [
             recv
               ~into:(sec into (sel_of_box m.box))
               ~from:(sec array (sel_of_box m.box));
           ])
      moves
  in
  (* Stationary pieces copy locally. *)
  let local =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun old_box ->
            List.filter_map
              (fun new_box ->
                match Box.inter old_box new_box with
                | Some b when not (Box.is_empty b) ->
                    Some
                      ((mypid =: i (p + 1))
                      @: [ copy_loops ~src_arr:array ~dst_arr:into b ])
                | _ -> None)
              (Xdp_dist.Layout.owned_boxes new_layout p))
          (Xdp_dist.Layout.owned_boxes old_layout p))
      (List.init nprocs Fun.id)
  in
  sends @ recvs @ local

let updated_decls ~decls ~array ~new_layout =
  List.map
    (fun d ->
      if d.arr_name = array then { d with layout = new_layout } else d)
    decls
