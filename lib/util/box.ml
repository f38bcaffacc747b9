type t = Triplet.t array

let make = function
  | [] -> invalid_arg "Box.make: rank 0"
  | ts -> Array.of_list ts

let of_shape shape = make (List.map (fun n -> Triplet.range 1 n) shape)
let point idx = make (List.map Triplet.point idx)
let rank t = Array.length t
let dims t = Array.to_list t

let dim t d =
  if d < 1 || d > Array.length t then invalid_arg "Box.dim: out of range";
  t.(d - 1)

let count t = Array.fold_left (fun acc tr -> acc * Triplet.count tr) 1 t
let is_empty t = Array.exists Triplet.is_empty t

let mem idx t =
  List.length idx = Array.length t
  && List.for_all2 (fun i tr -> Triplet.mem i tr) idx (dims t)

(* Array-indexed membership/offset: the executor's per-element hot
   path.  Top-level recursion (not a local closure) so a call
   allocates nothing. *)
let rec mem_arr_from idx t d n =
  d >= n || (Triplet.mem idx.(d) t.(d) && mem_arr_from idx t (d + 1) n)

let mem_arr idx t =
  let n = Array.length t in
  Array.length idx = n && mem_arr_from idx t 0 n

let rec offset_from idx t d n acc =
  if d >= n then acc
  else
    let tr = t.(d) in
    offset_from idx t (d + 1) n
      ((acc * Triplet.count tr) + ((idx.(d) - tr.Triplet.lo) / tr.Triplet.stride))

(* Horner form of the row-major [position]: for a member index vector
   this equals [position t (Array.to_list idx)]; membership is not
   checked. *)
let offset_arr t idx = offset_from idx t 0 (Array.length t) 0

let inter a b =
  if Array.length a <> Array.length b then
    invalid_arg "Box.inter: rank mismatch";
  let result = Array.make (Array.length a) (Triplet.point 0) in
  let ok = ref true in
  Array.iteri
    (fun i tra ->
      match Triplet.inter tra b.(i) with
      | Some tr -> result.(i) <- tr
      | None -> ok := false)
    a;
  if !ok then Some result else None

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Triplet.equal a b

let compare a b =
  match Stdlib.compare (Array.length a) (Array.length b) with
  | 0 ->
      let rec go i =
        if i >= Array.length a then 0
        else
          match Triplet.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
      in
      go 0
  | c -> c

(* [count (inter a b)] without building the intersection — what the
   per-query segment scans actually need from [inter].  Short-circuits
   on the first empty dimension; top-level recursion, so a dense pair
   allocates nothing. *)
let rec inter_count_from a b d n acc =
  if d >= n then acc
  else
    let c = Triplet.inter_count a.(d) b.(d) in
    if c = 0 then 0 else inter_count_from a b (d + 1) n (acc * c)

let inter_count a b =
  if Array.length a <> Array.length b then
    invalid_arg "Box.inter_count: rank mismatch";
  inter_count_from a b 0 (Array.length a) 1

let subset a b = is_empty a || inter_count a b = count a
let disjoint a b = inter_count a b = 0

let iter f t =
  let n = Array.length t in
  if not (is_empty t) then begin
    let idx = Array.map Triplet.first t in
    let continue = ref true in
    while !continue do
      f (Array.to_list idx);
      (* Advance row-major: last dimension fastest. *)
      let rec bump d =
        if d < 0 then continue := false
        else
          let tr = t.(d) in
          let next = idx.(d) + tr.Triplet.stride in
          if next <= Triplet.last tr then idx.(d) <- next
          else begin
            idx.(d) <- Triplet.first tr;
            bump (d - 1)
          end
      in
      bump (n - 1)
    done
  end

let fold f init t =
  let acc = ref init in
  iter (fun idx -> acc := f !acc idx) t;
  !acc

let to_list t = List.rev (fold (fun acc idx -> idx :: acc) [] t)

let weights t =
  let n = Array.length t in
  let w = Array.make n 1 in
  for d = n - 2 downto 0 do
    w.(d) <- w.(d + 1) * Triplet.count t.(d + 1)
  done;
  w

let position t idx =
  if not (mem idx t) then invalid_arg "Box.position: not a member";
  let w = weights t in
  let pos = ref 0 and d = ref 0 in
  List.iter
    (fun i ->
      let tr = t.(!d) in
      pos := !pos + ((i - tr.Triplet.lo) / tr.Triplet.stride * w.(!d));
      incr d)
    idx;
  !pos

let affine_in ~outer sub =
  let n = Array.length outer in
  if Array.length sub <> n then invalid_arg "Box.affine_in: rank mismatch";
  let w = weights outer in
  let base = ref 0 in
  let steps = Array.make n 0 in
  Array.iteri
    (fun d (trs : Triplet.t) ->
      if not (Triplet.is_empty trs) then begin
        let tro = outer.(d) in
        let ok =
          Triplet.mem trs.Triplet.lo tro
          && (Triplet.count trs <= 1
              || (trs.Triplet.stride mod tro.Triplet.stride = 0
                  && Triplet.mem trs.Triplet.hi tro))
        in
        if not ok then invalid_arg "Box.affine_in: not a sub-progression";
        base :=
          !base
          + ((trs.Triplet.lo - tro.Triplet.lo) / tro.Triplet.stride * w.(d));
        if Triplet.count trs > 1 then
          steps.(d) <- trs.Triplet.stride / tro.Triplet.stride * w.(d)
      end)
    sub;
  (!base, steps)

let iter_offsets ?(base = 0) ~steps t f =
  let n = Array.length t in
  if Array.length steps <> n then invalid_arg "Box.iter_offsets: rank mismatch";
  if not (is_empty t) then begin
    let counts = Array.map Triplet.count t in
    let k = Array.make n 0 in
    let off = ref base in
    let continue = ref true in
    while !continue do
      f !off;
      let rec bump d =
        if d < 0 then continue := false
        else if k.(d) + 1 < counts.(d) then begin
          k.(d) <- k.(d) + 1;
          off := !off + steps.(d)
        end
        else begin
          off := !off - (k.(d) * steps.(d));
          k.(d) <- 0;
          bump (d - 1)
        end
      in
      bump (n - 1)
    done
  end

let fold_offsets ?(base = 0) ~steps f init t =
  let acc = ref init in
  iter_offsets ~base ~steps t (fun off -> acc := f !acc off);
  !acc

(* Joint odometer over the first [nd] dimensions of [counts], keeping
   two affine offset accumulators in lock-step. *)
let odometer2 counts nd offa0 sa offb0 sb f =
  if nd = 0 then f offa0 offb0
  else begin
    let k = Array.make nd 0 in
    let offa = ref offa0 and offb = ref offb0 in
    let continue = ref true in
    while !continue do
      f !offa !offb;
      let rec bump d =
        if d < 0 then continue := false
        else if k.(d) + 1 < counts.(d) then begin
          k.(d) <- k.(d) + 1;
          offa := !offa + sa.(d);
          offb := !offb + sb.(d)
        end
        else begin
          offa := !offa - (k.(d) * sa.(d));
          offb := !offb - (k.(d) * sb.(d));
          k.(d) <- 0;
          bump (d - 1)
        end
      in
      bump (nd - 1)
    done
  end

let iter_runs2 t ~a:(base_a, steps_a) ~b:(base_b, steps_b) f =
  let n = Array.length t in
  if Array.length steps_a <> n || Array.length steps_b <> n then
    invalid_arg "Box.iter_runs2: rank mismatch";
  if not (is_empty t) then begin
    let counts = Array.map Triplet.count t in
    let inner = counts.(n - 1) in
    if steps_a.(n - 1) = 1 && steps_b.(n - 1) = 1 then
      (* both views are contiguous along the innermost dimension:
         hand out whole rows so callers can Array.blit/fill *)
      odometer2 counts (n - 1) base_a steps_a base_b steps_b (fun oa ob ->
          f oa ob inner)
    else
      odometer2 counts n base_a steps_a base_b steps_b (fun oa ob ->
          f oa ob 1)
  end

let covered_by ~parts t =
  let covered =
    List.fold_left (fun acc p -> acc + inter_count p t) 0 parts
  in
  covered = count t

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Triplet.pp)
    (dims t)

(* Format-free rendering (same notation as [pp]): box names key every
   rendezvous-board match, so this sits on the transfer hot path. *)
let to_string t =
  let buf = Buffer.create 32 in
  Buffer.add_char buf '[';
  Array.iteri
    (fun d tr ->
      if d > 0 then Buffer.add_string buf ", ";
      Triplet.bprint buf tr)
    t;
  Buffer.add_char buf ']';
  Buffer.contents buf
