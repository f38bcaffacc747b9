open Xdp_util
module Symtab = Xdp_symtab.Symtab

type kind = Pid of int | Own of string * Box.t | Other

(* A bucket grid over an array's index space listing, per bucket, the
   indices (into [s_pos]/[s_box]) of the boxes that span it: bucket
   [c] lists [items.(first.(c))] to [items.(first.(c+1) - 1)].  A
   descriptor box meets only boxes listed in its own buckets. *)
type grid = { first : int array; items : int array }

(* One array's [Own] guards: their run positions and boxes, the grid's
   geometry, and the grid itself, built by the first candidate search
   that needs it (a run no processor scans never pays for it).  Two
   domains may both build it; they build the same grid. *)
type slot = {
  s_name : string;
  s_pos : int array; (* ascending *)
  s_box : Box.t array;
  s_bs : int array; (* bucket span per dimension *)
  s_nb : int array; (* bucket count per dimension *)
  s_w : int array; (* row-major bucket weights *)
  s_ncells : int;
  mutable s_grid : grid option;
}

type t = {
  id : int;
  len : int;
  pid_head : float; (* the static charge of every settled [Pid] guard *)
  own_head : float; (* and of every settled [Own] guard *)
  cls : Bytes.t; (* per position: {!Rules.settle_guards}'s class code *)
  pid_lo : int;
  pid_rows : int array array; (* positions of [mypid = pid_lo + row] *)
  others : int array; (* positions always evaluated *)
  slots : slot array;
}

type cursor = {
  c_static : int array;
  c_own : int array array;
  c_stamp : int array; (* per slot: Symtab.growth at the build; -1 = none *)
  c_live : int array; (* per slot: live descriptors, for the replay *)
}

let id t = t.id
let length t = t.len
let other = Char.chr Rules.guard_other
let pid = Char.chr Rules.guard_pid

(* ---- the bucket grid: {!Symtab.grid_geometry}'s, with at most two
   buckets per box.  The walks over a box's buckets are top-level
   recursion over plain arguments: building a grid allocates only its
   arrays. *)

let bucket sl d v =
  let b = (v - 1) / sl.s_bs.(d) and nb = sl.s_nb.(d) in
  if b < 0 then 0 else if b >= nb then nb - 1 else b

(* Count [box] in [first.(c + 1)] for every bucket [c] it spans. *)
let rec count_cells sl (box : Box.t) first d base =
  if d >= Box.rank box then first.(base + 1) <- first.(base + 1) + 1
  else
    let (tr : Triplet.t) = Box.dim box (d + 1) in
    for b = bucket sl d tr.lo to bucket sl d tr.hi do
      count_cells sl box first (d + 1) (base + (b * sl.s_w.(d)))
    done

(* List [k] in every bucket [box] spans, at the bucket's next free
   slot [first.(c)]. *)
let rec place_cells sl (box : Box.t) first items k d base =
  if d >= Box.rank box then begin
    items.(first.(base)) <- k;
    first.(base) <- first.(base) + 1
  end
  else
    let (tr : Triplet.t) = Box.dim box (d + 1) in
    for b = bucket sl d tr.lo to bucket sl d tr.hi do
      place_cells sl box first items k (d + 1) (base + (b * sl.s_w.(d)))
    done

(* Onto [acc], every listed box that meets [box] (with repeats). *)
let rec meeting sl g (box : Box.t) d base acc =
  if d >= Box.rank box then begin
    let acc = ref acc in
    for i = g.first.(base) to g.first.(base + 1) - 1 do
      let k = g.items.(i) in
      if Box.inter_count sl.s_box.(k) box <> 0 then acc := k :: !acc
    done;
    !acc
  end
  else
    let (tr : Triplet.t) = Box.dim box (d + 1) in
    let acc = ref acc in
    for b = bucket sl d tr.lo to bucket sl d tr.hi do
      acc := meeting sl g box (d + 1) (base + (b * sl.s_w.(d))) !acc
    done;
    !acc

(* Count each bucket's boxes, turn the counts into starts, place the
   boxes (advancing each start to its end), then shift back. *)
let make_grid sl =
  let ncells = sl.s_ncells in
  let first = Array.make (ncells + 1) 0 in
  Array.iter (fun b -> count_cells sl b first 0 0) sl.s_box;
  for c = 1 to ncells do
    first.(c) <- first.(c) + first.(c - 1)
  done;
  let items = Array.make first.(ncells) 0 in
  Array.iteri (fun k b -> place_cells sl b first items k 0 0) sl.s_box;
  for c = ncells downto 1 do
    first.(c) <- first.(c - 1)
  done;
  first.(0) <- 0;
  { first; items }

let grid sl =
  match sl.s_grid with
  | Some g -> g
  | None ->
      let g = make_grid sl in
      sl.s_grid <- Some g;
      g

let make_slot ~shape ~seg_shape name pos box =
  let seg_shape = if List.compare_lengths seg_shape shape = 0 then seg_shape else shape in
  let s_bs, s_nb, s_w =
    Symtab.grid_geometry ~shape ~seg_shape ~cap:(Int.max 1 (2 * Array.length pos))
  in
  {
    s_name = name;
    s_pos = pos;
    s_box = box;
    s_bs;
    s_nb;
    s_w;
    s_ncells = Array.fold_left ( * ) 1 s_nb;
    s_grid = None;
  }

(* Each class's head charge, from any one member ([nan] for none). *)
let rec class_heads kind head pid own = function
  | [] -> (pid, own)
  | g :: rest -> (
      match kind g with
      | Pid _ when Float.is_nan pid -> class_heads kind head (head g) own rest
      | Own _ when Float.is_nan own -> class_heads kind head pid (head g) rest
      | Pid _ | Own _ | Other -> class_heads kind head pid own rest)

let build ~id ~geometry ~len ~kind ~head rev =
  let pid_head, own_head = class_heads kind head Float.nan Float.nan rev in
  (* a guard whose head differs from its class's is left to
     evaluation, as is one over an array past the slot codes *)
  let cls = Bytes.make len other in
  let names = ref [] and nslots = ref 0 in
  let kmin = ref max_int and kmax = ref min_int in
  List.iteri
    (fun i g ->
      let j = len - 1 - i and h = head g in
      match kind g with
      | Pid k when h = pid_head ->
          Bytes.set cls j pid;
          if k < !kmin then kmin := k;
          if k > !kmax then kmax := k
      | Own (a, _) when h = own_head -> (
          match List.assoc_opt a !names with
          | Some sl -> Bytes.set cls j (Char.chr sl)
          | None when !nslots < Rules.guard_slots ->
              names := (a, !nslots) :: !names;
              Bytes.set cls j (Char.chr !nslots);
              incr nslots
          | None -> ())
      | Pid _ | Own _ | Other -> ())
    rev;
  (* rows per literal [k]; a range far wider than the run (literals
     no machine size reaches) leaves its guards to evaluation *)
  let nrows =
    if !kmin <= !kmax && !kmax - !kmin < (2 * len) + 64 then
      !kmax - !kmin + 1
    else begin
      Bytes.iteri (fun j c -> if c = pid then Bytes.set cls j other) cls;
      0
    end
  in
  let pcount = Array.make nrows 0
  and scount = Array.make !nslots 0
  and ocount = ref 0 in
  List.iteri
    (fun i g ->
      let c = Bytes.get cls (len - 1 - i) in
      if c = other then incr ocount
      else
        match kind g with
        | Pid k -> pcount.(k - !kmin) <- pcount.(k - !kmin) + 1
        | Own _ -> scount.(Char.code c) <- scount.(Char.code c) + 1
        | Other -> assert false)
    rev;
  let pid_rows = Array.map (fun n -> Array.make n 0) pcount
  and others = Array.make !ocount 0
  and spos = Array.map (fun n -> Array.make n 0) scount
  and sbox =
    let unset = Box.point [ 0 ] in
    Array.map (fun n -> Array.make n unset) scount
  in
  (* fill in ascending order: the list runs from the last position
     down, and each count down from its total *)
  List.iteri
    (fun i g ->
      let j = len - 1 - i in
      let c = Bytes.get cls j in
      if c = other then begin
        decr ocount;
        others.(!ocount) <- j
      end
      else
        match kind g with
        | Pid k ->
            let r = k - !kmin in
            pcount.(r) <- pcount.(r) - 1;
            pid_rows.(r).(pcount.(r)) <- j
        | Own (_, b) ->
            let sl = Char.code c in
            scount.(sl) <- scount.(sl) - 1;
            spos.(sl).(scount.(sl)) <- j;
            sbox.(sl).(scount.(sl)) <- b
        | Other -> assert false)
    rev;
  let slots =
    Array.of_list
      (List.rev_map
         (fun (a, sl) ->
           let shape, seg_shape = geometry a in
           make_slot ~shape ~seg_shape a spos.(sl) sbox.(sl))
         !names)
  in
  if Array.length others = len then None
  else
    Some
      { id; len; pid_head; own_head; cls; pid_lo = !kmin; pid_rows; others; slots }

(* ---- per processor ---- *)

let cold = { c_static = [||]; c_own = [||]; c_stamp = [||]; c_live = [||] }

let merge a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to la + lb - 1 do
    if !j >= lb || (!i < la && a.(!i) < b.(!j)) then begin
      out.(k) <- a.(!i);
      incr i
    end
    else begin
      out.(k) <- b.(!j);
      incr j
    end
  done;
  out

let cursor t ~pid =
  let n = Array.length t.slots in
  let r = pid + 1 - t.pid_lo in
  {
    c_static =
      merge
        (if r >= 0 && r < Array.length t.pid_rows then t.pid_rows.(r) else [||])
        t.others;
    c_own = Array.make n [||];
    c_stamp = Array.make n (-1);
    c_live = Array.make n 0;
  }

(* The slot's guards whose box meets a live descriptor now. *)
let refresh t cur st s =
  let sl = t.slots.(s) in
  let g = grid sl and hits = ref [] in
  Symtab.iter_live st sl.s_name (fun d -> hits := meeting sl g d 0 0 !hits);
  cur.c_own.(s) <-
    Array.of_list
      (List.map (fun k -> sl.s_pos.(k)) (List.sort_uniq compare !hits));
  cur.c_stamp.(s) <- Symtab.growth st sl.s_name

(* The first entry of ascending [a] that is >= [x], or [none].
   Top-level recursion: a scan asks once per stretch, and a local
   closure would allocate on every call. *)
let rec lower a x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get a mid < x then lower a x (mid + 1) hi
    else lower a x lo mid

let next_in a x none =
  let k = lower a x 0 (Array.length a) in
  if k < Array.length a then Array.unsafe_get a k else none

let rec next_own t cur st i s best =
  if s >= Array.length t.slots || best = i then best
  else
    let sl = Array.unsafe_get t.slots s in
    let n = Array.length sl.s_pos in
    if n = 0 || sl.s_pos.(n - 1) < i then next_own t cur st i (s + 1) best
    else begin
      if cur.c_stamp.(s) <> Symtab.growth st sl.s_name then refresh t cur st s;
      let v = next_in cur.c_own.(s) i best in
      next_own t cur st i (s + 1) (if v < best then v else best)
    end

let next t cur st i = next_own t cur st i 0 (next_in cur.c_static i t.len)

let rec fill_live t cur st s =
  if s < Array.length t.slots then begin
    cur.c_live.(s) <- Symtab.live_count st t.slots.(s).s_name;
    fill_live t cur st (s + 1)
  end

let settle t cur (p : Rules.proc) a b =
  fill_live t cur p.st 0;
  Rules.settle_guards p ~pid_head:t.pid_head ~own_head:t.own_head ~cls:t.cls
    ~live:cur.c_live a b
