open Xdp_util

type seg = {
  seg_id : int;
  seg_box : Box.t;
  mutable status : State.t;
  mutable data : float array option;
}

type entry = {
  name : string;
  rank : int;
  global_shape : int list;
  partitioning : string;
  seg_shape : int list;
  mutable live : seg list;
      (* the non-[Unowned] descriptors, ascending seg_id — the scan
         path of every intrinsic query.  Queries skip unowned
         descriptors anyway (and charge no visit for them), so keeping
         retired descriptors out of here changes no observable result
         or charge; it only stops ownership churn from growing the
         scan linearly with transfer history. *)
  dead : (int, seg) Hashtbl.t;
      (* retired ([Unowned]) descriptors not yet purged by a later
         [expect_ownership] over the same region, keyed by seg_id.
         Kept apart from [live] so queries never scan the
         transfer-history residue; retired descriptors stay registered
         in the bucket index (queries skip them by status), which lets
         the purge find overlaps from the incoming box's buckets alone. *)
  mutable n_live : int; (* List.length live, kept incrementally *)
  mutable next_id : int;
  mutable dynamic : bool; (* ownership has moved since declaration *)
  ent_universal : bool;
  (* Spatial bucket index over the global index space: every live
     descriptor is registered in each bucket its box intersects, so a
     query gathers candidates from the buckets its own box spans
     instead of scanning the whole live list.  This changes only host
     time: the simulated cost of a query is still [n_live] descriptor
     visits (the linear scan the paper describes), charged in one
     step. *)
  ix_bs : int array; (* bucket span per dimension *)
  ix_nb : int array; (* bucket count per dimension *)
  ix_w : int array; (* row-major bucket weights *)
  ix_buckets : seg list array;
}

type t = {
  pid : int;
  free_on_release : bool;
  entries : (string, entry) Hashtbl.t;
  mutable order : string list; (* declaration order, reversed *)
  mutable allocated : int;
  mutable peak : int;
  mutable visits : int;
  mutable gen : int;
      (* bumped on every placement/storage transition; lets callers
         cache per-element segment lookups and invalidate cheaply *)
}

let create ~pid ?(free_on_release = true) () =
  {
    pid;
    free_on_release;
    entries = Hashtbl.create 16;
    order = [];
    allocated = 0;
    peak = 0;
    visits = 0;
    gen = 0;
  }

let pid t = t.pid
let generation t = t.gen

let alloc t n =
  t.allocated <- t.allocated + n;
  if t.allocated > t.peak then t.peak <- t.allocated

let free t n = t.allocated <- t.allocated - n

(* [Hashtbl.find], not [find_opt]: every query resolves its array
   here, and the option would be its only allocation. *)
let entry t name =
  match Hashtbl.find t.entries name with
  | e -> e
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Symtab: undeclared array %s" name)

(* Bucket geometry: start from the declared segment tile (buckets then
   align with the initial descriptors) and coarsen the busiest
   dimension until the table stays small. *)
let ix_make ~shape ~seg_shape =
  let r = List.length shape in
  let shp = Array.of_list shape in
  let bs =
    Array.of_list seg_shape
    |> Array.mapi (fun d s -> Int.max 1 (Int.min s shp.(d)))
  in
  let nb d = ((shp.(d) + bs.(d) - 1) / bs.(d)) |> Int.max 1 in
  let total () =
    let p = ref 1 in
    for d = 0 to r - 1 do
      p := !p * nb d
    done;
    !p
  in
  while total () > 8192 do
    let dmax = ref 0 in
    for d = 1 to r - 1 do
      if nb d > nb !dmax then dmax := d
    done;
    bs.(!dmax) <- bs.(!dmax) * 2
  done;
  let nbs = Array.init r nb in
  let w = Array.make r 1 in
  for d = r - 2 downto 0 do
    w.(d) <- w.(d + 1) * nbs.(d + 1)
  done;
  (bs, nbs, w, Array.make (total ()) [])

(* The bucket coordinate of index [v] in dimension [d], clamped into
   the bucket grid: clamping is the same monotone element-to-bucket map
   on both registration and query, so a shared element always lands in
   a shared bucket (the superset property queries rely on). *)
let ix_bucket e d v =
  let nb = e.ix_nb.(d) in
  let b = (v - 1) / e.ix_bs.(d) in
  if b < 0 then 0 else if b >= nb then nb - 1 else b

(* Enumerate the row-major offsets of every bucket a box can touch. *)
let ix_iter e (box : Box.t) f =
  let r = Box.rank box in
  let rec go d base =
    if d >= r then f base
    else begin
      let (tr : Triplet.t) = Box.dim box (d + 1) in
      let lo = ix_bucket e d tr.lo and hi = ix_bucket e d tr.hi in
      for b = lo to hi do
        go (d + 1) (base + (b * e.ix_w.(d)))
      done
    end
  in
  go 0 0

let ix_add e s =
  ix_iter e s.seg_box (fun b -> e.ix_buckets.(b) <- s :: e.ix_buckets.(b))

let ix_remove e s =
  ix_iter e s.seg_box (fun b ->
      e.ix_buckets.(b) <- List.filter (fun x -> x != s) e.ix_buckets.(b))

(* All live descriptors intersecting [box], in live-list order (live
   seg_ids are ascending, so sorting candidates by id reproduces it —
   release depends on that order for its payload layout). *)
let ix_covering e box =
  let acc = ref [] in
  ix_iter e box (fun b ->
      List.iter
        (fun s ->
          match s.status with
          | State.Unowned -> ()
          | State.Transitional | State.Accessible ->
              if Box.inter_count s.seg_box box <> 0 then acc := s :: !acc)
        e.ix_buckets.(b));
  match !acc with
  | [] | [ _ ] -> !acc
  | l -> List.sort_uniq (fun a b -> Int.compare a.seg_id b.seg_id) l

let declare t ~name ~layout ~seg_shape =
  if Hashtbl.mem t.entries name then
    invalid_arg (Printf.sprintf "Symtab.declare: %s already declared" name);
  let descs = Xdp_dist.Segment.tile layout ~pid:t.pid ~seg_shape in
  let segs =
    List.map
      (fun (d : Xdp_dist.Segment.desc) ->
        let n = Box.count d.box in
        alloc t n;
        {
          seg_id = d.id;
          seg_box = d.box;
          status = State.Accessible;
          data = Some (Array.make n 0.0);
        })
      descs
  in
  let shape = Xdp_dist.Layout.shape layout in
  let ix_bs, ix_nb, ix_w, ix_buckets = ix_make ~shape ~seg_shape in
  let e =
    {
      name;
      rank = Xdp_dist.Layout.rank layout;
      global_shape = shape;
      partitioning = Xdp_dist.Layout.to_string layout;
      seg_shape;
      live = segs;
      dead = Hashtbl.create 8;
      n_live = List.length segs;
      next_id = List.length segs;
      dynamic = false;
      ent_universal = false;
      ix_bs;
      ix_nb;
      ix_w;
      ix_buckets;
    }
  in
  List.iter (ix_add e) segs;
  Hashtbl.add t.entries name e;
  t.order <- name :: t.order

let declare_universal t ~name ~shape =
  if Hashtbl.mem t.entries name then
    invalid_arg (Printf.sprintf "Symtab.declare: %s already declared" name);
  let box = Box.of_shape shape in
  let n = Box.count box in
  alloc t n;
  let segs =
    [
      {
        seg_id = 0;
        seg_box = box;
        status = State.Accessible;
        data = Some (Array.make n 0.0);
      };
    ]
  in
  let ix_bs, ix_nb, ix_w, ix_buckets = ix_make ~shape ~seg_shape:shape in
  let e =
    {
      name;
      rank = List.length shape;
      global_shape = shape;
      partitioning = "(universal)";
      seg_shape = shape;
      live = segs;
      dead = Hashtbl.create 1;
      n_live = 1;
      next_id = 1;
      dynamic = false;
      ent_universal = true;
      ix_bs;
      ix_nb;
      ix_w;
      ix_buckets;
    }
  in
  List.iter (ix_add e) segs;
  Hashtbl.add t.entries name e;
  t.order <- name :: t.order

let universal t name = (entry t name).ent_universal

let reject_universal t name what =
  if universal t name then
    invalid_arg
      (Printf.sprintf
         "Symtab.%s: %s is universally owned (transfers require exclusive \
          sections; copy into an exclusive section first, paper §2.6)"
         what name)

let declared t name = Hashtbl.mem t.entries name
let names t = List.rev t.order
let global_shape t name = (entry t name).global_shape
let seg_shape t name = (entry t name).seg_shape
(* All descriptors in id order (rendering/introspection only). *)
let all_segs e =
  List.sort
    (fun a b -> Int.compare a.seg_id b.seg_id)
    (Hashtbl.fold (fun _ s acc -> s :: acc) e.dead e.live)

let segments t name = all_segs (entry t name)

(* Scans skip unowned descriptors: absence of a descriptor already
   means "unowned", so a released segment carries no information for
   queries — unlinking it from the scan path is the paper's §3.1
   "more efficient algorithms could be developed" in its simplest
   form (it keeps iown() linear in the number of *live* segments even
   after a full redistribution has retired the original ones). *)
let charge_query t e box =
  match e.live with
  | [] -> ()
  | s0 :: _ ->
      if Box.rank box <> e.rank then begin
        (* the linear scan charged one visit before the rank-mismatch
           intersection raised; reproduce that exactly *)
        t.visits <- t.visits + 1;
        ignore (Box.disjoint s0.seg_box box);
        assert false
      end;
      (* the paper's query visits every live descriptor; the bucket
         index only changes who does the intersecting, not the cost *)
      t.visits <- t.visits + e.n_live

let segments_covering t name box =
  let e = entry t name in
  charge_query t e box;
  if e.n_live = 0 then [] else ix_covering e box

let owned_parts t name box =
  segments_covering t name box
  |> List.filter (fun s -> s.status <> State.Unowned)
  |> List.map (fun s -> s.seg_box)

(* Covering queries walk the buckets [box] spans and sum
   [Box.inter_count] over the qualifying live descriptors they hold,
   without building a candidate list.  A descriptor spanning several
   of those buckets is counted only in the bucket holding the lower
   corner of its bounds' intersection with [box] (per dimension, the
   larger of the two lower bounds): that bucket lies in both bucket
   ranges, and it is unique.  Everything here is top-level recursion
   over plain arguments, so a dense query allocates nothing. *)
let rec ix_corner e (a : Box.t) (b : Box.t) d n acc =
  if d >= n then acc
  else
    let (ta : Triplet.t) = Box.dim a (d + 1)
    and (tb : Triplet.t) = Box.dim b (d + 1) in
    let lo = if ta.lo >= tb.lo then ta.lo else tb.lo in
    ix_corner e a b (d + 1) n (acc + (ix_bucket e d lo * e.ix_w.(d)))

let rec ix_sum_bucket e box ~need_accessible base acc = function
  | [] -> acc
  | s :: rest ->
      let acc =
        match s.status with
        | State.Unowned -> acc
        | State.Transitional when need_accessible -> acc
        | State.Transitional | State.Accessible ->
            let c = Box.inter_count s.seg_box box in
            if c <> 0 && ix_corner e s.seg_box box 0 (Box.rank box) 0 = base
            then acc + c
            else acc
      in
      ix_sum_bucket e box ~need_accessible base acc rest

let rec ix_sum e box ~need_accessible d base acc =
  if d >= Box.rank box then
    ix_sum_bucket e box ~need_accessible base acc e.ix_buckets.(base)
  else
    let (tr : Triplet.t) = Box.dim box (d + 1) in
    ix_sum_range e box ~need_accessible d base (ix_bucket e d tr.lo)
      (ix_bucket e d tr.hi) acc

and ix_sum_range e box ~need_accessible d base b hi acc =
  if b > hi then acc
  else
    ix_sum_range e box ~need_accessible d base (b + 1) hi
      (ix_sum e box ~need_accessible (d + 1) (base + (b * e.ix_w.(d))) acc)

(* The paper's algorithm: intersect the queried section with all
   segment bounds; iown is true iff the union of the (disjoint)
   intersections equals the section and no intersecting segment is
   unowned. *)
let covered t name box ~need_accessible =
  let e = entry t name in
  charge_query t e box;
  let covered =
    if e.n_live = 0 then 0 else ix_sum e box ~need_accessible 0 0 0
  in
  covered = Box.count box

let iown t name box = covered t name box ~need_accessible:false
let accessible t name box = covered t name box ~need_accessible:true

let section_state t name box =
  if not (iown t name box) then State.Unowned
  else if accessible t name box then State.Accessible
  else State.Transitional

let bound which t name box d =
  let pieces =
    owned_parts t name box
    |> List.filter_map (fun p -> Box.inter p box)
    |> List.filter (fun b -> not (Box.is_empty b))
  in
  List.fold_left
    (fun acc b ->
      let tr = Box.dim b d in
      let v =
        match which with `Lb -> Triplet.first tr | `Ub -> Triplet.last tr
      in
      match acc with
      | None -> Some v
      | Some x -> Some (match which with `Lb -> min x v | `Ub -> max x v))
    None pieces

let mylb t name box d = bound `Lb t name box d
let myub t name box d = bound `Ub t name box d

let mark_recv_init t name box =
  reject_universal t name "mark_recv_init";
  if not (iown t name box) then
    invalid_arg
      (Printf.sprintf "Symtab.mark_recv_init: P%d does not own %s%s" t.pid
         name (Box.to_string box));
  t.gen <- t.gen + 1;
  List.iter
    (fun s -> if s.status <> State.Unowned then s.status <- State.Transitional)
    (segments_covering t name box)

let mark_recv_complete t name box =
  t.gen <- t.gen + 1;
  List.iter
    (fun s -> if s.status = State.Transitional then s.status <- State.Accessible)
    (segments_covering t name box)

let release t name box =
  reject_universal t name "release";
  let e = entry t name in
  let touching = segments_covering t name box in
  List.iter
    (fun s ->
      if not (Box.subset s.seg_box box) then
        invalid_arg
          (Printf.sprintf
             "Symtab.release: %s%s does not cover whole segment %s (ownership \
              moves at segment granularity)"
             name (Box.to_string box)
             (Box.to_string s.seg_box));
      if s.status = State.Transitional then
        invalid_arg
          (Printf.sprintf
             "Symtab.release: segment %s of %s is transitional on P%d"
             (Box.to_string s.seg_box) name t.pid))
    touching;
  let covered =
    List.fold_left (fun acc s -> acc + Box.count s.seg_box) 0 touching
  in
  if covered <> Box.count box then
    invalid_arg
      (Printf.sprintf
         "Symtab.release: %s%s is not an exact union of owned segments" name
         (Box.to_string box));
  e.dynamic <- true;
  t.gen <- t.gen + 1;
  List.map
    (fun s ->
      let payload =
        match s.data with
        | Some d -> d
        | None -> Array.make (Box.count s.seg_box) 0.0
      in
      s.status <- State.Unowned;
      (* the descriptor stays in the bucket index: queries skip it by
         status, and the next expect_ownership purge finds it there *)
      Hashtbl.replace e.dead s.seg_id s;
      if t.free_on_release && s.data <> None then begin
        free t (Box.count s.seg_box);
        s.data <- None
      end;
      (s.seg_box, Array.copy payload))
    touching
  |> fun released ->
  e.live <- List.filter (fun s -> s.status <> State.Unowned) e.live;
  e.n_live <- e.n_live - List.length released;
  released

let expect_ownership t name box =
  reject_universal t name "expect_ownership";
  let e = entry t name in
  (match segments_covering t name box with
  | [] -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Symtab.expect_ownership: P%d already owns part of %s%s" t.pid
           name (Box.to_string box)));
  (* Stale unowned descriptors overlapping the incoming region carry no
     information (absence of a descriptor already means unowned); drop
     them so the table stays a disjoint cover.  They are all registered
     in the buckets the incoming box spans, so only those are scanned. *)
  let victims = ref [] in
  ix_iter e box (fun b ->
      List.iter
        (fun s ->
          if
            s.status = State.Unowned
            && Box.inter_count s.seg_box box <> 0
            && not (List.memq s !victims)
          then victims := s :: !victims)
        e.ix_buckets.(b));
  List.iter
    (fun s ->
      ix_remove e s;
      Hashtbl.remove e.dead s.seg_id)
    !victims;
  let id = e.next_id in
  e.next_id <- id + 1;
  e.dynamic <- true;
  t.gen <- t.gen + 1;
  let s =
    { seg_id = id; seg_box = box; status = State.Transitional; data = None }
  in
  e.live <- e.live @ [ s ];
  e.n_live <- e.n_live + 1;
  ix_add e s

let accept_ownership t name box payload =
  let e = entry t name in
  match
    List.find_opt
      (fun s -> Box.equal s.seg_box box && s.status = State.Transitional
                && s.data = None)
      (* candidates from the bucket index, in live order *)
      (ix_covering e box)
  with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Symtab.accept_ownership: no pending ownership receive for %s%s \
            on P%d"
           name (Box.to_string box) t.pid)
  | Some s ->
      let n = Box.count box in
      alloc t n;
      t.gen <- t.gen + 1;
      let data =
        match payload with
        | Some p ->
            if Array.length p <> n then
              invalid_arg "Symtab.accept_ownership: payload size mismatch";
            Array.copy p
        | None -> Array.make n 0.0
      in
      s.data <- Some data;
      s.status <- State.Accessible

(* Row-major bucket holding element [idx] (same clamping as [ix_iter];
   all registered descriptors — live or retired-with-storage — appear
   in the bucket their box spans, and they are pairwise disjoint, so
   the bucket scan finds the unique match). *)
let ix_elem_candidates e idx =
  if Array.length idx <> Array.length e.ix_bs then []
  else begin
    let b = ref 0 in
    for d = 0 to Array.length e.ix_bs - 1 do
      b := !b + (ix_bucket e d idx.(d) * e.ix_w.(d))
    done;
    e.ix_buckets.(!b)
  end

let rec data_seg_in idx = function
  | [] -> None
  | s :: rest ->
      if s.data <> None && Box.mem_arr idx s.seg_box then Some s
      else data_seg_in idx rest

let seg_with_data t name idx =
  let e = entry t name in
  let ia = Array.of_list idx in
  match data_seg_in ia (ix_elem_candidates e ia) with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Symtab: P%d has no storage for %s[%s]" t.pid name
           (String.concat "," (List.map string_of_int idx)))

let get t name idx =
  let s = seg_with_data t name idx in
  (Option.get s.data).(Box.position s.seg_box idx)

let set t name idx v =
  let s = seg_with_data t name idx in
  (Option.get s.data).(Box.position s.seg_box idx) <- v

(* Array-indexed element access: the allocation-free per-element path
   used by both execution engines.  Live segments are pairwise
   disjoint (declaration tiles a partition; expect_ownership purges
   unowned overlaps), so the first live segment containing the index
   is the only one. *)

let rec owned_in idx = function
  | [] -> false
  | s :: rest ->
      (s.status <> State.Unowned && Box.mem_arr idx s.seg_box)
      || owned_in idx rest

(* Equivalent to [iown t name (Box.point idx)] for a single element
   (disjointness makes covered-by degenerate to exists); raises the
   same exception as [Box.point []] on a rank-0 index so callers keep
   the list-path diagnostics. *)
let owned_element t name idx =
  if Array.length idx = 0 then invalid_arg "Box.make: rank 0";
  owned_in idx (entry t name).live

(* First segment with storage containing [idx] — the cacheable result
   of a [get_a]/[set_a] lookup; [None] when the element has no backing
   chunk here. *)
let elem_seg t name idx = data_seg_in idx (ix_elem_candidates (entry t name) idx)

let no_storage t name idx =
  invalid_arg
    (Printf.sprintf "Symtab: P%d has no storage for %s[%s]" t.pid name
       (String.concat "," (List.map string_of_int (Array.to_list idx))))

let get_a t name idx =
  match elem_seg t name idx with
  | Some s -> (Option.get s.data).(Box.offset_arr s.seg_box idx)
  | None -> no_storage t name idx

let set_a t name idx v =
  match elem_seg t name idx with
  | Some s -> (Option.get s.data).(Box.offset_arr s.seg_box idx) <- v
  | None -> no_storage t name idx

(* Marshalling between the packed row-major order of [box] (the wire
   format of a message payload) and segment-chunked storage. The copy
   loops are offset-based (Box.affine_in + Box.iter_runs2): no
   per-element index lists or position recomputation, and pieces that
   are contiguous in both the payload and the segment lower to
   Array.blit. *)
let iter_pieces t name box f =
  List.iter
    (fun s ->
      match s.data with
      | None -> ()
      | Some data -> (
          match Box.inter s.seg_box box with
          | None -> ()
          | Some piece ->
              if not (Box.is_empty piece) then
                let seg_view = Box.affine_in ~outer:s.seg_box piece in
                let box_view = Box.affine_in ~outer:box piece in
                f data piece ~seg:s ~seg_view ~box_view))
    (segments_covering t name box)

let read_box t name box =
  let out = Array.make (Box.count box) 0.0 in
  iter_pieces t name box (fun data piece ~seg:_ ~seg_view ~box_view ->
      Box.iter_runs2 piece ~a:seg_view ~b:box_view (fun src dst len ->
          if len = 1 then out.(dst) <- data.(src)
          else Array.blit data src out dst len));
  out

let write_box t name box buf =
  if Array.length buf < Box.count box then
    invalid_arg "Symtab.write_box: buffer too small";
  iter_pieces t name box (fun data piece ~seg:_ ~seg_view ~box_view ->
      Box.iter_runs2 piece ~a:seg_view ~b:box_view (fun dst src len ->
          if len = 1 then data.(dst) <- buf.(src)
          else Array.blit buf src data dst len))

let live_count t name = (entry t name).n_live

let allocated_elements t = t.allocated
let peak_elements t = t.peak
let descriptor_visits t = t.visits
let note_visits t n = t.visits <- t.visits + n

let pp_table ppf t =
  Format.fprintf ppf "XDP run-time symbol table, processor P%d@." (t.pid + 1);
  Format.fprintf ppf
    "%-5s %-8s %-4s %-12s %-28s %-10s %-6s@." "index" "symbol" "rank"
    "global shape" "partitioning" "seg shape" "#segs";
  List.iteri
    (fun i name ->
      let e = entry t name in
      let shp l = "(" ^ String.concat "," (List.map string_of_int l) ^ ")" in
      Format.fprintf ppf "%-5d %-8s %-4d %-12s %-28s %-10s %-6d@." (i + 1)
        e.name e.rank (shp e.global_shape)
        (e.partitioning ^ if e.dynamic then " [dynamic]" else "")
        (shp e.seg_shape)
        (List.length (all_segs e));
      List.iter
        (fun s ->
          Format.fprintf ppf "      segdesc[%d]: %-22s status=%a%s@." s.seg_id
            (Box.to_string s.seg_box) State.pp s.status
            (match s.data with Some _ -> "" | None -> " (no storage)"))
        (all_segs e))
    (names t)
