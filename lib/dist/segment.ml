open Xdp_util

type desc = { id : int; box : Box.t }

(* One dimension's tiles: the owned triplets, read as one ascending
   index stream, cut into consecutive chunks of [s] indices.  Each
   chunk is built from the triplet pieces it spans in closed form (a
   triplet's members from position [k] on are [lo + k*stride], ...),
   so no index is ever listed.  A chunk is one triplet when every step
   inside and between its pieces is the same positive stride. *)
let tile_dim ~s ~dim owned =
  let not_ap () =
    invalid_arg
      (Printf.sprintf
         "Segment.tile: segment extent %d in dim %d does not yield an \
          arithmetic progression (tile within distribution blocks)"
         s dim)
  in
  let out = ref [] in
  (* the chunk under construction: [n] members from [first] to [last],
     with common difference [diff] (0 until it has two members) *)
  let n = ref 0 and first = ref 0 and last = ref 0 and diff = ref 0 in
  let close () =
    if !n > 0 then begin
      out :=
        Triplet.make ~lo:!first ~hi:!last ~stride:(Int.max 1 !diff) :: !out;
      n := 0
    end
  in
  let add lo stride take =
    let hi = lo + ((take - 1) * stride) in
    if !n = 0 then begin
      first := lo;
      diff := if take > 1 then stride else 0
    end
    else begin
      let gap = lo - !last in
      if !diff = 0 then diff := gap;
      if gap <> !diff || gap <= 0 || (take > 1 && stride <> !diff) then
        not_ap ()
    end;
    last := hi;
    n := !n + take;
    if !n = s then close ()
  in
  List.iter
    (fun (tr : Triplet.t) ->
      let count = Triplet.count tr in
      let k = ref 0 in
      while !k < count do
        let take = Int.min (count - !k) (s - !n) in
        add (tr.lo + (!k * tr.stride)) tr.stride take;
        k := !k + take
      done)
    owned;
  close ();
  List.rev !out

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
        tile_dim ~s ~dim:(d0 + 1) (Layout.owned_triplets layout pid (d0 + 1)))
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
