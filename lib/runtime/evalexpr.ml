open Xdp.Ir
open Xdp_util

(* This tree-walker is the semantic reference the staged engine
   (Precompile, DESIGN.md §4c/§4d) is held to bit for bit: its
   evaluation order, charge points, and the exact diagnostics below
   are all replicated by the compiled closures — [Unowned_ref] ends a
   fused superinstruction mid-flight exactly where it would abort a
   tree-walk here, and [Blocked_on] marks the abortable boundaries the
   fusion region analysis must never fuse across.  Changing anything
   observable in this module means changing Precompile in lockstep
   (the differential suite will catch a drift). *)

exception Unowned_ref of string
exception Blocked_on of string * Box.t

type env = (string, Value.t) Hashtbl.t

(* Reusable index buffers for [Elem] evaluation: one exact-size
   [int array] per (nesting depth, rank), grown lazily and reused for
   every element access — the interpreter's per-access [List.map]
   allocation removed.  Depth tracks Elem-inside-Elem nesting (e.g.
   [A[B[i]]]) so an inner access never clobbers the buffer an outer
   access is still filling. *)
module Scratch = struct
  type t = { mutable depth : int; mutable rows : int array array array }

  let create () = { depth = 0; rows = [||] }

  let buf t rank =
    if t.depth >= Array.length t.rows then begin
      let rows = Array.make (t.depth + 4) [||] in
      Array.blit t.rows 0 rows 0 (Array.length t.rows);
      t.rows <- rows
    end;
    let row = t.rows.(t.depth) in
    let row =
      if rank < Array.length row then row
      else begin
        let r = Array.make (rank + 4) [||] in
        Array.blit row 0 r 0 (Array.length row);
        t.rows.(t.depth) <- r;
        r
      end
    in
    if Array.length row.(rank) <> rank then row.(rank) <- Array.make rank 0;
    row.(rank)
end

type hooks = {
  mypid1 : int;
  nprocs : int;
  shape_of : string -> int list;
  elem : string -> int array -> float;
  iown : string -> Box.t -> bool;
  accessible : string -> Box.t -> bool;
  await : string -> Box.t -> bool;
  mylb : string -> Box.t -> int -> int option;
  myub : string -> Box.t -> int -> int option;
  charge : float -> unit;
  cm : Xdp_sim.Costmodel.t;
  scratch : Scratch.t;
}

let lookup env v =
  match Hashtbl.find_opt env v with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "unbound scalar variable %s" v)

let rec eval h env e =
  match e with
  | Int n -> Value.VInt n
  | Float x -> Value.VFloat x
  | Bool b -> Value.VBool b
  | Var v -> lookup env v
  | Mypid -> Value.VInt h.mypid1
  | Nprocs -> Value.VInt h.nprocs
  | Elem (a, idxs) ->
      let sc = h.scratch in
      let d = sc.Scratch.depth in
      let buf = Scratch.buf sc (List.length idxs) in
      sc.Scratch.depth <- d + 1;
      let v =
        match
          fill_idx h env buf 0 idxs;
          h.charge h.cm.time_mem;
          h.elem a buf
        with
        | v -> v
        | exception e ->
            sc.Scratch.depth <- d;
            raise e
      in
      sc.Scratch.depth <- d;
      Value.VFloat v
  | Bin (op, a, b) ->
      (* [&&]/[||] short-circuit so that guards like
         [iown(X) and accessible(X)] do not query past a failure. *)
      h.charge h.cm.time_int_op;
      (match op with
      | And ->
          if Value.to_bool (eval h env a) then eval h env b
          else Value.VBool false
      | Or ->
          if Value.to_bool (eval h env a) then Value.VBool true
          else eval h env b
      | _ ->
          (* left operand first, as the staged engine evaluates it: an
             argument list would evaluate right to left, so an abort in
             [a] would report a clock that already charged [b] *)
          let x = eval h env a in
          Value.binop op x (eval h env b))
  | Un (op, a) ->
      h.charge h.cm.time_int_op;
      Value.unop op (eval h env a)
  | Mylb (s, d) -> (
      let box = resolve_section h env s in
      match h.mylb s.arr box d with
      | Some i -> Value.VInt i
      | None -> Value.VInt max_int)
  | Myub (s, d) -> (
      let box = resolve_section h env s in
      match h.myub s.arr box d with
      | Some i -> Value.VInt i
      | None -> Value.VInt min_int)
  | Iown s ->
      let box = resolve_section h env s in
      Value.VBool (h.iown s.arr box)
  | Accessible s ->
      let box = resolve_section h env s in
      Value.VBool (h.accessible s.arr box)
  | Await s ->
      let box = resolve_section h env s in
      Value.VBool (h.await s.arr box)

and fill_idx h env buf i = function
  | [] -> ()
  | e :: es ->
      buf.(i) <- eval_int h env e;
      fill_idx h env buf (i + 1) es

and eval_int h env e =
  Value.to_int (eval h env e)

and resolve_section h env s =
  let shape = h.shape_of s.arr in
  if List.length s.sel <> List.length shape then
    invalid_arg
      (Printf.sprintf "section %s: rank mismatch" (Xdp.Pp.section_to_string s));
  let triplets =
    List.map2
      (fun sel extent ->
        match sel with
        | All -> Triplet.range 1 extent
        | At e -> Triplet.point (eval_int h env e)
        | Slice (lo, hi, st) ->
            Triplet.make ~lo:(eval_int h env lo) ~hi:(eval_int h env hi)
              ~stride:(eval_int h env st))
      s.sel shape
  in
  Box.make triplets

let eval_guard h env g =
  h.charge h.cm.time_guard;
  try Value.to_bool (eval h env g) with Unowned_ref _ -> false

let sequential_hooks ~shape_of ~elem ~cm =
  let full name box d =
    ignore name;
    Some (Triplet.first (Box.dim box d))
  and full_ub name box d =
    ignore name;
    Some (Triplet.last (Box.dim box d))
  in
  {
    mypid1 = 1;
    nprocs = 1;
    shape_of;
    elem;
    iown = (fun _ _ -> true);
    accessible = (fun _ _ -> true);
    await = (fun _ _ -> true);
    mylb = full;
    myub = full_ub;
    charge = (fun _ -> ());
    cm;
    scratch = Scratch.create ();
  }
