open Xdp_util

type desc = { id : int; box : Box.t }

(* Split [l] into chunks of [n] (last may be shorter). *)
let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let tile layout ~pid ~seg_shape =
  let rank = Layout.rank layout in
  if List.length seg_shape <> rank then
    invalid_arg "Segment.tile: seg_shape rank mismatch";
  List.iter
    (fun s -> if s <= 0 then invalid_arg "Segment.tile: extent <= 0")
    seg_shape;
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
    List.mapi (fun id ts -> { id; box = Box.make ts }) product

let default_shape layout =
  List.mapi
    (fun d0 dist ->
      match (dist : Dist.t) with
      | Dist.Block_cyclic m -> m
      | Dist.Star | Dist.Block | Dist.Cyclic ->
          max 1 (Layout.local_extent layout 0 (d0 + 1)))
    (Layout.dist layout)

let total_elements descs =
  List.fold_left (fun acc d -> acc + Box.count d.box) 0 descs

let find_containing descs idx =
  List.find_opt (fun d -> Box.mem idx d.box) descs

let seg_char id =
  if id < 10 then Char.chr (Char.code '0' + id)
  else if id < 36 then Char.chr (Char.code 'a' + id - 10)
  else '#'

let segment_map layout ~pid ~seg_shape =
  match Layout.shape layout with
  | [ rows; cols ] ->
      let descs = tile layout ~pid ~seg_shape in
      let buf = Buffer.create ((rows + 1) * (cols + 1)) in
      for i = 1 to rows do
        for j = 1 to cols do
          match find_containing descs [ i; j ] with
          | Some d -> Buffer.add_char buf (seg_char d.id)
          | None -> Buffer.add_char buf '.'
        done;
        if i < rows then Buffer.add_char buf '\n'
      done;
      Buffer.contents buf
  | _ -> invalid_arg "Segment.segment_map: rank must be 2"
