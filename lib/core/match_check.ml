open Ir

type verdict = Balanced | Unbalanced of string | Unknown of string

(* A symbolic count: a constant multiplied by unknown factors (kept as
   sorted strings so products compare structurally). *)
type count = { const : int; syms : string list }

let one = { const = 1; syms = [] }
let mul_const k c = { c with const = c.const * k }
let mul_sym s c = { c with syms = List.sort compare (s :: c.syms) }

let count_to_string c =
  match c.syms with
  | [] -> string_of_int c.const
  | syms -> string_of_int c.const ^ "*" ^ String.concat "*" syms

type kind = KValue | KOwner | KOwner_value

let kind_to_string = function
  | KValue -> "value"
  | KOwner -> "ownership"
  | KOwner_value -> "ownership+value"

type event = {
  ev_arr : string;
  ev_kind : kind;
  ev_send : bool;
  ev_count : count;
}

(* Does a guard select exactly one processor machine-wide?  True for
   iown of any exclusive section (exactly one owner, §2.1) and for
   [mypid == e] conjuncts. *)
let rec selects_one_proc g =
  match g with
  | Iown _ -> true
  (* await is false on unowned sections, so like iown it selects the
     section's owner (and additionally synchronizes) *)
  | Await _ -> true
  | Bin (Eq, Mypid, _) | Bin (Eq, _, Mypid) -> true
  | Bin (And, a, b) -> selects_one_proc a || selects_one_proc b
  | _ -> false

(* pid-range comparisons select a statically known number of
   processors when the machine size is known. *)
let pid_range_count ~nprocs g =
  match nprocs with
  | None -> None
  | Some np -> (
      let clamp n = max 0 (min np n) in
      match Simplify.expr g with
      | Bin (Lt, Mypid, Int k) -> Some (clamp (k - 1))
      | Bin (Gt, Int k, Mypid) -> Some (clamp (k - 1))
      | Bin (Gt, Mypid, Int k) -> Some (clamp (np - k))
      | Bin (Lt, Int k, Mypid) -> Some (clamp (np - k))
      | Bin (Le, Mypid, Int k) -> Some (clamp k)
      | Bin (Ge, Int k, Mypid) -> Some (clamp k)
      | Bin (Ge, Mypid, Int k) -> Some (clamp (np - k + 1))
      | Bin (Le, Int k, Mypid) -> Some (clamp (np - k + 1))
      | _ -> None)

(* Guards that never block counting: awaits select owners too (false on
   unowned), so an await guard also selects at most the owners; for a
   section with a single owner that is one processor, but we cannot see
   ownership multiplicity here, so treat pure awaits as unknown. *)
let guard_factor ~nprocs g =
  if selects_one_proc g then `Procs 1
  else
    match pid_range_count ~nprocs g with
    | Some n -> `Procs n
    | None -> `Unknown ("data-dependent guard " ^ Pp.expr_to_string g)

let trip_count (fl : for_loop) =
  if Simplify.expr fl.lo = Simplify.expr fl.hi then Some 1
  else
    match
      ( Simplify.known_int fl.lo,
        Simplify.known_int fl.hi,
        Simplify.known_int fl.step )
    with
    | Some lo, Some hi, Some step when step > 0 ->
        Some (max 0 (((hi - lo) / step) + 1))
    | _ -> None

let collect (p : program) =
  let nprocs =
    match p.decls with
    | d :: _ -> Some (Xdp_dist.Layout.nprocs d.layout)
    | [] -> None
  in
  let events = ref [] and unknowns = ref [] in
  let emit ~guarded ctx arr kind send extra =
    (* unguarded transfers run on every processor *)
    let c =
      if guarded then ctx
      else
        match nprocs with
        | Some np -> mul_const np ctx
        | None -> mul_sym "nprocs" ctx
    in
    let c = match extra with None -> c | Some k -> mul_const k c in
    events :=
      { ev_arr = arr; ev_kind = kind; ev_send = send; ev_count = c }
      :: !events
  in
  let rec stmt ~guarded ctx s =
    match s with
    | Assign _ -> ()
    | Guard (g, body) -> (
        match guard_factor ~nprocs g with
        | `Procs n -> List.iter (stmt ~guarded:true (mul_const n ctx)) body
        | `Unknown why ->
            (* only matters if the body contains transfers *)
            if (effects body).transfers then unknowns := why :: !unknowns
            else List.iter (stmt ~guarded ctx) body)
    | For fl -> (
        match trip_count fl with
        | Some n -> List.iter (stmt ~guarded (mul_const n ctx)) fl.body
        | None ->
            List.iter
              (stmt ~guarded
                 (mul_sym
                    (Printf.sprintf "trip(%s)" (Pp.expr_to_string fl.hi))
                    ctx))
              fl.body)
    | If (_, a, b) ->
        if (effects (a @ b)).transfers then
          unknowns := "transfer under data-dependent if" :: !unknowns
    | Send_value (s, dest) ->
        let fanout =
          match dest with
          | Unspecified -> None
          | Directed pids -> Some (List.length pids)
        in
        emit ~guarded ctx s.arr KValue true fanout
    | Send_owner s -> emit ~guarded ctx s.arr KOwner true None
    | Send_owner_value s -> emit ~guarded ctx s.arr KOwner_value true None
    | Recv_value { from; _ } -> emit ~guarded ctx from.arr KValue false None
    | Recv_owner s -> emit ~guarded ctx s.arr KOwner false None
    | Recv_owner_value s -> emit ~guarded ctx s.arr KOwner_value false None
    | Apply _ -> ()
  in
  List.iter (stmt ~guarded:false one) p.body;
  (List.rev !events, List.rev !unknowns)

(* Sum counts per (arr, kind, direction): possible only when symbolic
   factors agree; otherwise keep the multiset of products. *)
let totals events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = (e.ev_arr, e.ev_kind, e.ev_send) in
      let cur = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
      Hashtbl.replace tbl key (e.ev_count :: cur))
    events;
  tbl

(* Compare two count multisets: merge constants with equal symbolic
   parts, then compare. *)
let normalize counts =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let cur = Option.value (Hashtbl.find_opt tbl c.syms) ~default:0 in
      Hashtbl.replace tbl c.syms (cur + c.const))
    counts;
  Hashtbl.fold (fun syms const acc -> (syms, const) :: acc) tbl []
  |> List.filter (fun (_, c) -> c <> 0)
  |> List.sort compare

let pairs p =
  let events, unknowns = collect p in
  let tbl = totals events in
  let keys =
    Hashtbl.fold (fun (arr, kind, _) _ acc -> (arr, kind) :: acc) tbl []
    |> List.sort_uniq compare
  in
  ( List.map
      (fun (arr, kind) ->
        let get send =
          Option.value (Hashtbl.find_opt tbl (arr, kind, send)) ~default:[]
        in
        (arr, kind, normalize (get true), normalize (get false)))
      keys,
    unknowns )

let check p =
  let rows, unknowns = pairs p in
  match unknowns with
  | why :: _ -> Unknown why
  | [] -> (
      match
        List.filter (fun (_, _, sends, recvs) -> sends <> recvs) rows
      with
      | [] -> Balanced
      | (arr, kind, sends, recvs) :: _ ->
          let show l =
            String.concat " + "
              (List.map
                 (fun (syms, c) -> count_to_string { const = c; syms })
                 l)
            |> function "" -> "0" | s -> s
          in
          Unbalanced
            (Printf.sprintf "%s (%s): %s sends vs %s receives" arr
               (kind_to_string kind) (show sends) (show recvs)))

let report p =
  let rows, unknowns = pairs p in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "send/receive balance:\n";
  List.iter
    (fun (arr, kind, sends, recvs) ->
      let show l =
        String.concat " + "
          (List.map (fun (syms, c) -> count_to_string { const = c; syms }) l)
        |> function "" -> "0" | s -> s
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %-16s sends=%-12s recvs=%-12s %s\n" arr
           (kind_to_string kind) (show sends) (show recvs)
           (if sends = recvs then "ok" else "MISMATCH")))
    rows;
  List.iter
    (fun why -> Buffer.add_string buf ("  unknown: " ^ why ^ "\n"))
    unknowns;
  Buffer.contents buf

(* Total message prediction: the machine-wide number of matched
   messages a run will perform, when every count is a known constant.
   For a balanced program this is the send total (each send matches
   one receive); broadcast fanout is already folded into the send
   counts. *)
let static_message_count p =
  let events, unknowns = collect p in
  if unknowns <> [] then None
  else
    let sends = List.filter (fun e -> e.ev_send) events in
    if List.exists (fun e -> e.ev_count.syms <> []) sends then None
    else Some (List.fold_left (fun acc e -> acc + e.ev_count.const) 0 sends)
