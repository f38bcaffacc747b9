open Xdp.Ir
open Xdp_util
module Symtab = Xdp_symtab.Symtab
module State = Xdp_symtab.State
module Costmodel = Xdp_sim.Costmodel

(* One piece of a memoized kernel marshalling plan: the slice of the
   applied section backed by one segment chunk, with its copy runs
   precomputed.  A plan revalidates against the current table by
   checking each piece's descriptor directly (still owned, same
   chunk); when the newly applied section is the cached one translated
   along a single dimension, every run merely shifts by a constant
   chunk offset. *)
type kpiece = {
  kp_seg : Symtab.seg; (* the backing descriptor *)
  kp_data : float array; (* its chunk at plan-build time *)
  kp_piece : Box.t; (* intersection with the cached section *)
  kp_w : int array; (* row-major weights of the segment box *)
  kp_runs : (int * int * int) array; (* (chunk_off, buf_off, len) *)
  mutable kp_shift : int; (* chunk-offset shift of the current call *)
}

(* A site is the per-machine mutable state of one static program
   point: the index scratch buffer of an element access plus an
   inline cache of the backing segment (geometry and storage chunk,
   valid while the symbol table generation is unchanged), the
   memoized box of a section whose selectors use [mypid]/[nprocs], or
   the marshalling plan of an inlined kernel call. *)
type site = {
  s_idx : int array;
  mutable s_gen : int; (* Symtab.generation at fill; min_int = cold *)
  mutable s_data : float array;
  mutable s_lo : int array;
  mutable s_hi : int array;
  mutable s_stride : int array;
  mutable s_cnt : int array;
  mutable s_box : Box.t option; (* memoized per-processor section *)
  (* range-kernel access (batched loops): element [t] of the walk is
     [s_data.(s_base + t * s_step)], [s_data] the checked segment chunk *)
  mutable s_base : int;
  mutable s_step : int;
  (* kernel marshalling-plan cache (inlined kernel path): the piece
     decomposition of the last applied section, revalidated per call
     against the descriptors themselves *)
  mutable s_kbox : Box.t option;
  mutable s_kpieces : kpiece array;
  mutable s_ktotal : int; (* elements covered; a hit requires a full cover *)
}

type machine = {
  m_pid1 : int;
  m_ints : int array;
  m_flts : float array;
  m_vals : Value.t array;
  m_bnd : Bytes.t; (* per-variable bound flags *)
  m_sites : site array;
  m_p : Rules.proc;
  (* reusable payload/scratch buffers of the inlined kernel path *)
  mutable m_kbuf : float array;
  mutable m_ktmp : float array;
  (* the running range kernel's loop: iteration [t] binds [lo + t * step] *)
  mutable m_klo : int;
  mutable m_kstep : int;
  m_kreg : float array; (* its register file *)
}

type act = A_next | A_block of units | A_loop of loop
and code = machine -> act

(* One schedulable unit of a compiled block: either a single statement
   (one scheduler turn per act, the PR3 discipline) or a fused
   superinstruction — a maximal run of statements that can never block
   on a transfer, executed by [fu_fast] in a single scheduler turn.
   [fu_slow] is the same run statement-at-a-time; the scheduler falls
   back to it whenever fusing could reorder an observable event (the
   processor has a receive in flight).  A [U_guard] is an
   owner-computes guard whose body blocks: the scheduler may evaluate a
   run of consecutive false ones in one turn (DESIGN.md §4d). *)
and unit_ = U_stmt of code | U_fuse of fuse | U_guard of guard
and units = unit_ array

and fuse = {
  fu_fast : machine -> unit;  (** run everything, counting each statement *)
  fu_slow : units;  (** the same statements, one scheduler turn each *)
}

and guard = {
  g_test : machine -> bool;  (** counted, charged guard evaluation *)
  g_body : units;  (** pushed when the guard holds *)
  g_pure : bool;  (** the condition reads no symbol-table state *)
}

and loop = {
  l_lo : int;
  l_hi : int;
  l_step : int;
  l_set : machine -> int -> unit;
  l_body : units;
}

(* ------------------------------------------------------------------ *)
(* Static scalar types.  A variable gets an unboxed slot only when
   every binding (scalar preload, loop header, assignment) agrees on
   one concrete type; [SInt] and [SFloat] do NOT join to [SFloat]
   because integer and float division/modulo differ, so mixed
   variables stay boxed with exact Value semantics. *)

type sty = SBot | SInt | SFloat | SBool | SDyn

let join a b =
  if a = b then a
  else match (a, b) with SBot, x | x, SBot -> x | _ -> SDyn

let var_ty tys miss v =
  match Hashtbl.find_opt tys v with
  | Some SBot | None -> miss
  | Some t -> t

let rec ty_of tys miss e =
  match e with
  | Int _ | Mypid | Nprocs | Mylb _ | Myub _ -> SInt
  | Float _ | Elem _ -> SFloat
  | Bool _ | Iown _ | Accessible _ | Await _ -> SBool
  | Var v -> var_ty tys miss v
  | Un (Neg, a) -> (
      match ty_of tys miss a with
      | (SInt | SFloat | SBot) as t -> t
      | _ -> SDyn)
  | Un (Not, _) -> SBool
  | Bin (op, a, b) -> (
      let ta = ty_of tys miss a and tb = ty_of tys miss b in
      match op with
      | Eq | Ne | Lt | Le | Gt | Ge -> SBool
      | And | Or -> (
          (* the result is [b]'s value (or a boolean constant), so
             only [b]'s type matters *)
          match tb with SBool -> SBool | SBot -> SBot | _ -> SDyn)
      | Mod -> (
          match (ta, tb) with
          | SBot, _ | _, SBot -> SBot
          | SInt, SInt -> SInt
          | _ -> SDyn)
      | Add | Sub | Mul | Div | Min | Max -> (
          match (ta, tb) with
          | SBot, _ | _, SBot -> SBot
          | SInt, SInt -> SInt
          | (SInt | SFloat), (SInt | SFloat) -> SFloat
          | _ -> SDyn))

(* All scalar names appearing in the program or the preload, in first
   occurrence order (stable slot numbering). *)
let collect_vars (p : program) scalars =
  let seen = Hashtbl.create 32 in
  let order = ref [] in
  let note v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      order := v :: !order
    end
  in
  List.iter (fun (v, _) -> note v) scalars;
  let rec ex = function
    | Int _ | Float _ | Bool _ | Mypid | Nprocs -> ()
    | Var v -> note v
    | Elem (_, es) -> List.iter ex es
    | Bin (_, a, b) ->
        ex a;
        ex b
    | Un (_, a) -> ex a
    | Mylb (s, _) | Myub (s, _) | Iown s | Accessible s | Await s -> sec s
  and sec s =
    List.iter
      (function
        | All -> ()
        | At e -> ex e
        | Slice (a, b, c) ->
            ex a;
            ex b;
            ex c)
      s.sel
  and st = function
    | Assign (Lvar v, e) ->
        note v;
        ex e
    | Assign (Lelem (_, idxs), e) ->
        List.iter ex idxs;
        ex e
    | Guard (g, body) ->
        ex g;
        List.iter st body
    | For { var; lo; hi; step; body; _ } ->
        note var;
        ex lo;
        ex hi;
        ex step;
        List.iter st body
    | If (c, a, b) ->
        ex c;
        List.iter st a;
        List.iter st b
    | Send_value (s, d) -> (
        sec s;
        match d with Unspecified -> () | Directed es -> List.iter ex es)
    | Send_owner s | Send_owner_value s | Recv_owner s | Recv_owner_value s ->
        sec s
    | Recv_value { into; from } ->
        sec into;
        sec from
    | Apply { args; _ } -> List.iter sec args
  in
  List.iter st p.body;
  List.rev !order

let infer_types (p : program) scalars vars =
  let tys = Hashtbl.create 32 in
  let cur v = match Hashtbl.find_opt tys v with Some t -> t | None -> SBot in
  let changed = ref true in
  let bind v t =
    let nt = join (cur v) t in
    if nt <> cur v then begin
      Hashtbl.replace tys v nt;
      changed := true
    end
  in
  List.iter
    (fun (v, x) ->
      bind v
        (match x with
        | Value.VInt _ -> SInt
        | Value.VFloat _ -> SFloat
        | Value.VBool _ -> SBool))
    scalars;
  let rec st = function
    | Assign (Lvar v, e) -> bind v (ty_of tys SBot e)
    | For { var; body; _ } ->
        bind var SInt;
        List.iter st body
    | Guard (_, body) -> List.iter st body
    | If (_, a, b) ->
        List.iter st a;
        List.iter st b
    | _ -> ()
  in
  while !changed do
    changed := false;
    List.iter st p.body
  done;
  (* never-bound or unresolvable variables execute through the boxed
     path (an unbound read still raises at run time) *)
  List.iter
    (fun v ->
      match Hashtbl.find_opt tys v with
      | None | Some SBot -> Hashtbl.replace tys v SDyn
      | Some _ -> ())
    vars;
  tys

type kind = KInt | KFloat | KVal
type slot = { v_kind : kind; v_off : int; v_id : int }

type ctx = {
  cm : Costmodel.t;
  kernels : Xdp.Kernels.registry;
  tys : (string, sty) Hashtbl.t;
  slots : (string, slot) Hashtbl.t;
  shape_of : string -> int list;
  mutable nsites : int;
  mutable site_ranks : int list; (* reversed *)
  (* Quiet compilation ([quietly]): every charge diverts into [qtally]
     at compile time and the closures charge nothing.  It measures a
     batched loop body's fixed per-iteration tally (its cost structure
     is statically fixed — enforced by [fixed_cost_e]) and builds the
     charge-free loop-invariant subscripts of range kernels. *)
  mutable quiet : bool;
  mutable qtally : Costmodel.tally;
  mutable kregs : int; (* the largest range-kernel register file *)
  (* fusion statistics (static, accumulated during compilation) *)
  mutable fs_total : int; (* statements compiled *)
  mutable fs_fusable : int; (* statements with a fused form *)
  mutable fs_units : int; (* fused superinstructions emitted *)
  mutable fs_run_hist : (int * int) list; (* run length -> count, unsorted *)
  mutable fs_loops : int; (* natively specialized loop statements *)
  mutable fs_batched : int; (* loops charging one batched tally *)
  mutable fs_kernels : int; (* inlined kernel call sites *)
  mutable fs_blockers : (string * int) list; (* blocking reason -> count *)
}

let record_run ctx len =
  ctx.fs_units <- ctx.fs_units + 1;
  ctx.fs_run_hist <-
    (match List.assoc_opt len ctx.fs_run_hist with
    | Some n -> (len, n + 1) :: List.remove_assoc len ctx.fs_run_hist
    | None -> (len, 1) :: ctx.fs_run_hist)

let record_blocker ctx reason =
  ctx.fs_blockers <-
    (match List.assoc_opt reason ctx.fs_blockers with
    | Some n -> (reason, n + 1) :: List.remove_assoc reason ctx.fs_blockers
    | None -> (reason, 1) :: ctx.fs_blockers)

let ty ctx e = ty_of ctx.tys SDyn e

let slot ctx v =
  match Hashtbl.find_opt ctx.slots v with
  | Some s -> s
  | None -> assert false (* collect_vars saw every name *)

let new_site ctx rank =
  let k = ctx.nsites in
  ctx.nsites <- k + 1;
  ctx.site_ranks <- rank :: ctx.site_ranks;
  k

(* ------------------------------------------------------------------ *)
(* The staging framework: a compiled fragment carries the statically
   known cost of its non-aborting prefix (a Costmodel.tally, turned
   into one charge by the consumer), an "aborts" flag, and the run
   closure.  Composition folds costs left to right until the first
   fragment that may abort (raise Unowned_ref/Blocked_on or perform
   runtime-valued charges); everything after such a fragment charges
   itself at run time, preserving the interpreter's exact clock at
   every abort point. *)

type 'a frag = { cost : Costmodel.tally; ab : bool; run : machine -> 'a }

let pure x = { cost = Costmodel.tally_zero; ab = false; run = (fun _ -> x) }
let lift f = { cost = Costmodel.tally_zero; ab = false; run = f }
let map f p = { p with run = (fun m -> f (p.run m)) }

(* Charge the fragment's static head cost, then run it.  Under quiet
   compilation all charges divert into the context tally instead. *)
let charged ctx p =
  if ctx.quiet then begin
    ctx.qtally <- Costmodel.tally_add ctx.qtally p.cost;
    p.run
  end
  else if Costmodel.tally_is_zero p.cost then p.run
  else
    let c = Costmodel.tally_cost ctx.cm p.cost in
    fun m ->
      Rules.charge m.m_p c;
      p.run m

(* Prefix cost (charged before the fragment runs). *)
let tcost ctx t p =
  if ctx.quiet then begin
    ctx.qtally <- Costmodel.tally_add ctx.qtally t;
    p
  end
  else { p with cost = Costmodel.tally_add t p.cost }

(* Cost charged after the fragment's value is produced; folds into the
   static head when the fragment cannot abort. *)
let post ctx t p =
  if ctx.quiet then begin
    ctx.qtally <- Costmodel.tally_add ctx.qtally t;
    p
  end
  else if not p.ab then { p with cost = Costmodel.tally_add p.cost t }
  else if Costmodel.tally_is_zero t then p
  else
    let c = Costmodel.tally_cost ctx.cm t in
    {
      p with
      run =
        (fun m ->
          let x = p.run m in
          Rules.charge m.m_p c;
          x);
    }

(* Run [a] then [b], combining with [f]; left-to-right, costs fold
   across the pair while [a] cannot abort. *)
let map2 ctx f a b =
  if not a.ab then
    {
      cost = Costmodel.tally_add a.cost b.cost;
      ab = b.ab;
      run =
        (fun m ->
          let x = a.run m in
          f x (b.run m));
    }
  else
    let br = charged ctx b in
    {
      cost = a.cost;
      ab = true;
      run =
        (fun m ->
          let x = a.run m in
          f x (br m));
    }

let seq2 ctx (a : unit frag) b =
  if not a.ab then
    {
      cost = Costmodel.tally_add a.cost b.cost;
      ab = b.ab;
      run =
        (fun m ->
          a.run m;
          b.run m);
    }
  else
    let br = charged ctx b in
    {
      cost = a.cost;
      ab = true;
      run =
        (fun m ->
          a.run m;
          br m);
    }

let rec seq_list ctx = function
  | [] -> pure []
  | p :: rest -> map2 ctx (fun x xs -> x :: xs) p (seq_list ctx rest)

(* ------------------------------------------------------------------ *)
(* Element-access inline caches. *)

let fresh_site rank =
  {
    s_idx = Array.make rank 0;
    s_gen = min_int;
    s_data = [||];
    s_lo = Array.make rank 0;
    s_hi = Array.make rank 0;
    s_stride = Array.make rank 1;
    s_cnt = Array.make rank 1;
    s_box = None;
    s_base = 0;
    s_step = 0;
    s_kbox = None;
    s_kpieces = [||];
    s_ktotal = 0;
  }

(* Offset along dimension [d] of index [i] in the site's cached
   segment geometry, or -1 when [i] is outside it.  A unit stride
   (every BLOCK segment) needs no division. *)
let[@inline] dim_off s d i =
  let k = i - Array.unsafe_get s.s_lo d in
  if k < 0 || i > Array.unsafe_get s.s_hi d then -1
  else
    let st = Array.unsafe_get s.s_stride d in
    if st = 1 then k else if k mod st = 0 then k / st else -1

(* Row-major offset of the site's scratch index in the cached segment
   geometry (Horner form), or -1 when the index is outside it. *)
let rec site_off s d n acc =
  if d >= n then acc
  else
    let o = dim_off s d s.s_idx.(d) in
    if o < 0 then -1 else site_off s (d + 1) n ((acc * s.s_cnt.(d)) + o)

let fill_site st s (seg : Symtab.seg) =
  match seg.Symtab.data with
  | None -> s.s_gen <- min_int
  | Some data ->
      List.iteri
        (fun d (tr : Triplet.t) ->
          s.s_lo.(d) <- tr.Triplet.lo;
          s.s_hi.(d) <- tr.Triplet.hi;
          s.s_stride.(d) <- tr.Triplet.stride;
          s.s_cnt.(d) <- Triplet.count tr)
        (Box.dims seg.Symtab.seg_box);
      s.s_data <- data;
      s.s_gen <- Symtab.generation st

let refill st s arr =
  match Symtab.elem_seg st arr s.s_idx with
  | Some seg when seg.Symtab.status <> State.Unowned -> fill_site st s seg
  | _ -> s.s_gen <- min_int

let unowned_ref arr (idx : int array) =
  Evalexpr.Unowned_ref (arr ^ Box.to_string (Box.point (Array.to_list idx)))

(* Read miss: exact interpreter semantics (ownership check, then the
   no-storage diagnostic of Symtab), plus a cache refill. *)
let slow_read m s arr =
  let st = m.m_p.Rules.st in
  if not (Symtab.owned_element st arr s.s_idx) then raise (unowned_ref arr s.s_idx);
  let v = Symtab.get_a st arr s.s_idx in
  refill st s arr;
  v

let read_site m k arr =
  let s = m.m_sites.(k) in
  let st = m.m_p.Rules.st in
  if s.s_gen = Symtab.generation st then begin
    let off = site_off s 0 (Array.length s.s_idx) 0 in
    if off >= 0 then Array.unsafe_get s.s_data off else slow_read m s arr
  end
  else slow_read m s arr

(* Write-site ownership check, returning the cached storage offset or
   -1 when the element is owned but the cache could not be (re)filled
   (the store then goes through Symtab.set_a for exact diagnostics). *)
let slow_write_check m s arr =
  let st = m.m_p.Rules.st in
  if not (Symtab.owned_element st arr s.s_idx) then
    Rules.unowned_write m.m_p arr (Box.point (Array.to_list s.s_idx));
  refill st s arr;
  if s.s_gen = Symtab.generation st then
    site_off s 0 (Array.length s.s_idx) 0
  else -1

let write_check m k arr =
  let s = m.m_sites.(k) in
  let st = m.m_p.Rules.st in
  if s.s_gen = Symtab.generation st then begin
    let off = site_off s 0 (Array.length s.s_idx) 0 in
    if off >= 0 then off else slow_write_check m s arr
  end
  else slow_write_check m s arr

let store_site m k arr x off =
  let s = m.m_sites.(k) in
  if off >= 0 then Array.unsafe_set s.s_data off x
  else Symtab.set_a m.m_p.Rules.st arr s.s_idx x

(* ------------------------------------------------------------------ *)
(* Expression compilers.  [ci]/[cf]/[cb] require the expression's
   static type to be SInt/SFloat/SBool respectively; [cv] compiles any
   expression to its boxed Value with exact interpreter semantics. *)

let exn_div0 = Invalid_argument "Value: integer division by zero"
let exn_mod0 = Invalid_argument "Value: modulo by zero"
let vtrue = Value.VBool true
let vfalse = Value.VBool false

let read_slot_check v (sl : slot) =
  let ex = Invalid_argument (Printf.sprintf "unbound scalar variable %s" v) in
  fun m -> if Bytes.unsafe_get m.m_bnd sl.v_id = '\000' then raise ex

(* Selectors whose value is fixed for the run ([per_proc:false]:
   literals only) or per processor ([per_proc:true]: literals, mypid,
   nprocs). *)
let rec const_e ~per_proc = function
  | Int _ | Float _ | Bool _ -> true
  | Mypid | Nprocs -> per_proc
  | Bin (_, a, b) -> const_e ~per_proc a && const_e ~per_proc b
  | Un (_, a) -> const_e ~per_proc a
  | Var _ | Elem _ | Mylb _ | Myub _ | Iown _ | Accessible _ | Await _ ->
      false

let const_sel ~per_proc sel =
  List.for_all
    (function
      | All -> true
      | At e -> const_e ~per_proc e
      | Slice (a, b, c) ->
          const_e ~per_proc a && const_e ~per_proc b && const_e ~per_proc c)
    sel

(* The box of a literal-only section, evaluated once at compile time
   with the interpreter's Value semantics; [None] when evaluation
   raises, so the run-time path raises the same diagnostic at the same
   point. *)
let literal_box sel shape =
  let rec lit = function
    | Int n -> Value.VInt n
    | Float x -> Value.VFloat x
    | Bool b -> Value.VBool b
    | Bin (op, a, b) -> Value.binop op (lit a) (lit b)
    | Un (op, a) -> Value.unop op (lit a)
    | _ -> invalid_arg "Precompile.literal_box: not a literal"
  in
  let int e = Value.to_int (lit e) in
  match
    Box.make
      (List.map2
         (fun sel extent ->
           match sel with
           | All -> Triplet.range 1 extent
           | At e -> Triplet.point (int e)
           | Slice (lo, hi, st) ->
               Triplet.make ~lo:(int lo) ~hi:(int hi) ~stride:(int st))
         sel shape)
  with
  | b -> Some b
  | exception _ -> None

let rec ci ctx e : int frag =
  match e with
  | Int n -> pure n
  | Mypid -> lift (fun m -> m.m_pid1)
  | Nprocs -> lift (fun m -> m.m_p.Rules.run.Rules.nprocs)
  | Var v ->
      let sl = slot ctx v in
      let ex =
        Invalid_argument (Printf.sprintf "unbound scalar variable %s" v)
      in
      let off = sl.v_off and id = sl.v_id in
      lift (fun m ->
          if Bytes.unsafe_get m.m_bnd id = '\000' then raise ex;
          Array.unsafe_get m.m_ints off)
  | Bin (((Add | Sub) as op), Var v, Int n) ->
      (* var ± literal, the shape of every stencil subscript: one
         closure instead of a combinator chain (same check, same
         charge, same left-to-right order) *)
      let sl = slot ctx v in
      let ex =
        Invalid_argument (Printf.sprintf "unbound scalar variable %s" v)
      in
      let off = sl.v_off and id = sl.v_id in
      let n = match op with Add -> n | _ -> -n in
      tcost ctx Costmodel.tally_int_op
        (lift (fun m ->
             if Bytes.unsafe_get m.m_bnd id = '\000' then raise ex;
             Array.unsafe_get m.m_ints off + n))
  | Bin (op, a, b) ->
      let ca = ci ctx a and cb_ = ci ctx b in
      let c =
        match op with
        | Add -> map2 ctx ( + ) ca cb_
        | Sub -> map2 ctx ( - ) ca cb_
        | Mul -> map2 ctx ( * ) ca cb_
        | Div ->
            map2 ctx (fun x y -> if y = 0 then raise exn_div0 else x / y) ca cb_
        | Mod ->
            map2 ctx
              (fun x y -> if y = 0 then raise exn_mod0 else x mod y)
              ca cb_
        | Min -> map2 ctx (fun (x : int) y -> if x <= y then x else y) ca cb_
        | Max -> map2 ctx (fun (x : int) y -> if x >= y then x else y) ca cb_
        | _ -> assert false
      in
      tcost ctx Costmodel.tally_int_op c
  | Un (Neg, a) -> tcost ctx Costmodel.tally_int_op (map (fun x -> -x) (ci ctx a))
  | (Mylb (s, d) | Myub (s, d)) as e ->
      let cs = csec ctx s in
      let arr = s.arr in
      let query, none =
        match e with Mylb _ -> (Rules.mylb, max_int) | _ -> (Rules.myub, min_int)
      in
      {
        cs with
        run =
          (fun m ->
            match query m.m_p arr (cs.run m) d with Some i -> i | None -> none);
      }
  | _ -> assert false

and cf ctx e : float frag =
  match e with
  | Float x -> pure x
  | Var v ->
      let sl = slot ctx v in
      let ex =
        Invalid_argument (Printf.sprintf "unbound scalar variable %s" v)
      in
      let off = sl.v_off and id = sl.v_id in
      lift (fun m ->
          if Bytes.unsafe_get m.m_bnd id = '\000' then raise ex;
          Array.unsafe_get m.m_flts off)
  | Elem (a, idxs) -> celem ctx a idxs
  | Bin (op, a, b) ->
      let ca = cnum ctx a and cb_ = cnum ctx b in
      let c =
        match op with
        | Add -> map2 ctx ( +. ) ca cb_
        | Sub -> map2 ctx ( -. ) ca cb_
        | Mul -> map2 ctx ( *. ) ca cb_
        | Div -> map2 ctx ( /. ) ca cb_
        | Min -> map2 ctx Float.min ca cb_
        | Max -> map2 ctx Float.max ca cb_
        | _ -> assert false
      in
      tcost ctx Costmodel.tally_int_op c
  | Un (Neg, a) ->
      tcost ctx Costmodel.tally_int_op (map (fun x -> -.x) (cf ctx a))
  | _ -> assert false

(* Numeric operand of a float-typed operation: a statically-int
   subexpression is coerced exactly like Value.to_float. *)
and cnum ctx e =
  match ty ctx e with
  | SInt -> map float_of_int (ci ctx e)
  | SFloat -> cf ctx e
  | _ -> assert false

and cb ctx e : bool frag =
  match e with
  | Bool b -> pure b
  | Var v ->
      let sl = slot ctx v in
      let check = read_slot_check v sl in
      let off = sl.v_off in
      lift (fun m ->
          check m;
          Value.to_bool m.m_vals.(off))
  | Iown s -> c_query ctx s `Iown
  | Accessible s -> c_query ctx s `Accessible
  | Await s -> c_query ctx s `Await
  | Un (Not, a) -> tcost ctx Costmodel.tally_int_op (map not (c_bool ctx a))
  | Bin (And, a, b) ->
      let ca = c_bool ctx a in
      let br = charged ctx (c_bool ctx b) in
      tcost ctx Costmodel.tally_int_op
        {
          cost = ca.cost;
          ab = true;
          run = (fun m -> if ca.run m then br m else false);
        }
  | Bin (Or, a, b) ->
      let ca = c_bool ctx a in
      let br = charged ctx (c_bool ctx b) in
      tcost ctx Costmodel.tally_int_op
        {
          cost = ca.cost;
          ab = true;
          run = (fun m -> if ca.run m then true else br m);
        }
  | Bin (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) ->
      let c =
        match (ty ctx a, ty ctx b) with
        | SInt, SInt ->
            let ca = ci ctx a and cb_ = ci ctx b in
            let f : int -> int -> bool =
              match op with
              | Eq -> ( = )
              | Ne -> ( <> )
              | Lt -> ( < )
              | Le -> ( <= )
              | Gt -> ( > )
              | Ge -> ( >= )
              | _ -> assert false
            in
            map2 ctx f ca cb_
        | (SInt | SFloat), (SInt | SFloat) ->
            (* the interpreter compares via polymorphic [compare] on
               floats, i.e. the total order of Float.compare *)
            let ca = cnum ctx a and cb_ = cnum ctx b in
            let f =
              match op with
              | Eq -> fun x y -> Float.compare x y = 0
              | Ne -> fun x y -> Float.compare x y <> 0
              | Lt -> fun x y -> Float.compare x y < 0
              | Le -> fun x y -> Float.compare x y <= 0
              | Gt -> fun x y -> Float.compare x y > 0
              | Ge -> fun x y -> Float.compare x y >= 0
              | _ -> assert false
            in
            map2 ctx f ca cb_
        | SBool, SBool ->
            let ca = cb ctx a and cb_ = cb ctx b in
            let f : bool -> bool -> bool =
              match op with
              | Eq -> ( = )
              | Ne -> ( <> )
              | Lt -> ( < )
              | Le -> ( <= )
              | Gt -> ( > )
              | Ge -> ( >= )
              | _ -> assert false
            in
            map2 ctx f ca cb_
        | _ ->
            map2 ctx
              (fun x y -> Value.to_bool (Value.binop op x y))
              (cv ctx a) (cv ctx b)
      in
      tcost ctx Costmodel.tally_int_op c
  | _ -> assert false

(* Intrinsic placement queries call the descriptor-charged oracles of
   {!Rules} directly, exactly as the interpreter's hooks do.  No
   per-site cache: a hit needs the same box at the same site with no
   ownership change in between, which straight-line transfer programs
   (each guard runs once) and loops (the box moves with the loop
   variable) almost never produce, while the cache cost one record
   per query site per processor (DESIGN.md §4c). *)
and c_query ctx (s : section) which =
  let cs = csec ctx s in
  let arr = s.arr in
  let run =
    match which with
    | `Iown -> fun m -> Rules.iown m.m_p arr (cs.run m)
    | `Accessible -> fun m -> Rules.accessible m.m_p arr (cs.run m)
    | `Await -> fun m -> Rules.await m.m_p arr (cs.run m)
  in
  { cost = cs.cost; ab = true; run }

(* Any expression in boolean position (guards, if-conditions, and/or
   operands): statically-bool goes unboxed, everything else through
   Value.to_bool for exact diagnostics. *)
and c_bool ctx e =
  match ty ctx e with
  | SBool -> cb ctx e
  | _ -> map Value.to_bool (cv ctx e)

(* Subscript/bound position: interpreter semantics are
   [Value.to_int (eval e)]. *)
and c_idx ctx e =
  match ty ctx e with SInt -> ci ctx e | _ -> map Value.to_int (cv ctx e)

and cv ctx e : Value.t frag =
  match ty ctx e with
  | SInt -> map (fun n -> Value.VInt n) (ci ctx e)
  | SFloat -> map (fun x -> Value.VFloat x) (cf ctx e)
  | SBool -> map (fun b -> if b then vtrue else vfalse) (cb ctx e)
  | _ -> cvd ctx e

(* Dynamic fallback: mirror Evalexpr.eval exactly. *)
and cvd ctx e =
  match e with
  | Var v ->
      let sl = slot ctx v in
      let check = read_slot_check v sl in
      let off = sl.v_off in
      lift (fun m ->
          check m;
          m.m_vals.(off))
  | Bin (And, a, b) ->
      let ca = c_bool ctx a in
      let br = charged ctx (cv ctx b) in
      tcost ctx Costmodel.tally_int_op
        {
          cost = ca.cost;
          ab = true;
          run = (fun m -> if ca.run m then br m else vfalse);
        }
  | Bin (Or, a, b) ->
      let ca = c_bool ctx a in
      let br = charged ctx (cv ctx b) in
      tcost ctx Costmodel.tally_int_op
        {
          cost = ca.cost;
          ab = true;
          run = (fun m -> if ca.run m then vtrue else br m);
        }
  | Bin (op, a, b) ->
      tcost ctx Costmodel.tally_int_op
        (map2 ctx (Value.binop op) (cv ctx a) (cv ctx b))
  | Un (op, a) ->
      tcost ctx Costmodel.tally_int_op (map (Value.unop op) (cv ctx a))
  | _ -> assert false (* every other constructor has a concrete type *)

(* Evaluate subscripts left-to-right into site [k]'s scratch buffer.
   When no subscript can abort (no intrinsic queries inside), the
   whole fill is one closure over an array of compiled subscripts —
   costs fold into the static head exactly as the combinator chain
   would fold them, so charges are unchanged. *)
and c_fill ctx k idxs = c_fill2 ctx k (List.map (fun e -> c_idx ctx e) idxs)

and c_fill2 ctx k (ces : int frag list) =
  if List.for_all (fun (c : int frag) -> not c.ab) ces then begin
    let cost =
      List.fold_left
        (fun acc (c : int frag) -> Costmodel.tally_add acc c.cost)
        Costmodel.tally_zero ces
    in
    let runs = Array.of_list (List.map (fun (c : int frag) -> c.run) ces) in
    {
      cost;
      ab = false;
      run =
        (fun m ->
          let s = m.m_sites.(k) in
          for d = 0 to Array.length runs - 1 do
            s.s_idx.(d) <- (Array.unsafe_get runs d) m
          done);
    }
  end
  else
    let rec fill d = function
      | [] -> pure ()
      | ce :: es ->
          let st =
            {
              cost = ce.cost;
              ab = ce.ab;
              run = (fun m -> m.m_sites.(k).s_idx.(d) <- ce.run m);
            }
          in
          seq2 ctx st (fill (d + 1) es)
    in
    fill 0 ces

(* Element read: subscripts evaluate into the site's scratch buffer
   (charging as they go), one memory charge, then the cached read.
   Rank-1/2 reads with non-abortable subscripts — every stencil
   reference — compile to a single closure with the offset arithmetic
   of [site_off] unrolled inline; the scratch buffer is only filled on
   the slow path, whose diagnostics need it. *)
and celem ctx arr idxs =
  let k = new_site ctx (List.length idxs) in
  let ces = List.map (fun e -> c_idx ctx e) idxs in
  let specialized =
    match ces with
    | [ c0 ] when not c0.ab ->
        let r0 = c0.run in
        Some
          {
            cost = c0.cost;
            ab = false;
            run =
              (fun m ->
                let i = r0 m in
                let s = m.m_sites.(k) in
                let o =
                  if s.s_gen = Symtab.generation m.m_p.Rules.st then
                    dim_off s 0 i
                  else -1
                in
                if o >= 0 then Array.unsafe_get s.s_data o
                else begin
                  s.s_idx.(0) <- i;
                  slow_read m s arr
                end);
          }
    | [ c0; c1 ] when (not c0.ab) && not c1.ab ->
        let r0 = c0.run and r1 = c1.run in
        Some
          {
            cost = Costmodel.tally_add c0.cost c1.cost;
            ab = false;
            run =
              (fun m ->
                let i = r0 m in
                let j = r1 m in
                let s = m.m_sites.(k) in
                let o0 =
                  if s.s_gen = Symtab.generation m.m_p.Rules.st then
                    dim_off s 0 i
                  else -1
                in
                let o1 = if o0 >= 0 then dim_off s 1 j else -1 in
                if o1 >= 0 then
                  Array.unsafe_get s.s_data
                    ((o0 * Array.unsafe_get s.s_cnt 1) + o1)
                else begin
                  s.s_idx.(0) <- i;
                  s.s_idx.(1) <- j;
                  slow_read m s arr
                end);
          }
    | _ -> None
  in
  match specialized with
  | Some base -> { (post ctx Costmodel.tally_mem base) with ab = true }
  | None ->
      let filled = post ctx Costmodel.tally_mem (c_fill2 ctx k ces) in
      {
        cost = filled.cost;
        ab = true;
        run =
          (fun m ->
            filled.run m;
            read_site m k arr);
      }

(* Section resolution.  Per-dimension selectors evaluate left to
   right; inside a Slice the interpreter's [Triplet.make ~lo ~hi
   ~stride] evaluates its arguments right to left (OCaml argument
   order), so stride, hi, lo — replicated here so charges interleave
   identically.  A literal-only section resolves at compile time to its
   box; one whose subscripts are per-processor constants (mypid,
   nprocs) memoizes its box per machine.  Either way the resolution
   cost is still charged on every execution. *)
and csec ctx (s : section) : Box.t frag =
  match
    match ctx.shape_of s.arr with
    | shape -> `Shape shape
    | exception e -> `Raise e
  with
  | `Raise e -> { cost = Costmodel.tally_zero; ab = true; run = (fun _ -> raise e) }
  | `Shape shape ->
      if List.length s.sel <> List.length shape then begin
        let msg =
          Printf.sprintf "section %s: rank mismatch"
            (Xdp.Pp.section_to_string s)
        in
        {
          cost = Costmodel.tally_zero;
          ab = true;
          run = (fun _ -> invalid_arg msg);
        }
      end
      else begin
        let dims =
          List.map2
            (fun sel extent ->
              match sel with
              | All -> pure (Triplet.range 1 extent)
              | At e -> map Triplet.point (c_idx ctx e)
              | Slice (lo, hi, st) ->
                  let cst = c_idx ctx st in
                  let chi = c_idx ctx hi in
                  let clo = c_idx ctx lo in
                  let p = map2 ctx (fun st hi -> (st, hi)) cst chi in
                  map2 ctx
                    (fun (st, hi) lo -> Triplet.make ~lo ~hi ~stride:st)
                    p clo)
            s.sel shape
        in
        let boxed = map Box.make (seq_list ctx dims) in
        if boxed.ab then boxed
        else if const_sel ~per_proc:false s.sel then begin
          match literal_box s.sel shape with
          | Some b -> { boxed with run = (fun _ -> b) }
          | None -> boxed
        end
        else if const_sel ~per_proc:true s.sel then begin
          let k = new_site ctx 0 in
          {
            boxed with
            run =
              (fun m ->
                let site = m.m_sites.(k) in
                match site.s_box with
                | Some b -> b
                | None ->
                    let b = boxed.run m in
                    site.s_box <- Some b;
                    b);
          }
        end
        else boxed
      end

(* ------------------------------------------------------------------ *)
(* Statement compilation. *)

(* Float-valued right-hand side of an element store: interpreter does
   [Value.to_float (eval e)]. *)
let c_float_rhs ctx e =
  match ty ctx e with
  | SFloat -> cf ctx e
  | SInt -> map float_of_int (ci ctx e)
  | _ -> map Value.to_float (cv ctx e)

(* ------------------------------------------------------------------ *)
(* Fusion region analysis (DESIGN.md §4d).  A statement may execute
   inside a superinstruction — without ever yielding its scheduler
   turn — iff it can never raise [Blocked_on]: transfer statements and
   [await] expressions are the only blocking points, so any statement
   that is neither is fusable.  [Unowned_ref] and misuse aborts are
   fatal diagnostics, not yields, and may still end a fused run
   mid-flight. *)

let rec no_await_e = function
  | Int _ | Float _ | Bool _ | Mypid | Nprocs | Var _ -> true
  | Await _ -> false
  | Elem (_, es) -> List.for_all no_await_e es
  | Bin (_, a, b) -> no_await_e a && no_await_e b
  | Un (_, a) -> no_await_e a
  | Mylb (s, _) | Myub (s, _) | Iown s | Accessible s -> no_await_sec s

and no_await_sec s =
  List.for_all
    (function
      | All -> true
      | At e -> no_await_e e
      | Slice (a, b, c) -> no_await_e a && no_await_e b && no_await_e c)
    s.sel

(* A table-free expression reads nothing a delivery can change: no
   placement intrinsics, no bounds queries, no element reads.  A guard
   over one may be evaluated early even while a receive is in flight. *)
let rec table_free_e = function
  | Int _ | Float _ | Bool _ | Mypid | Nprocs | Var _ -> true
  | Elem _ | Iown _ | Accessible _ | Await _ | Mylb _ | Myub _ -> false
  | Bin (_, a, b) -> table_free_e a && table_free_e b
  | Un (_, a) -> table_free_e a

(* A fixed-cost expression charges the same static tally on every
   evaluation: no short-circuit operators (data-dependent charges), no
   descriptor intrinsics (run-time descriptor-visit charges).  Only a
   loop body made of such expressions has the fixed per-iteration
   tally a batched loop charges. *)
let rec fixed_cost_e = function
  | Int _ | Float _ | Bool _ | Mypid | Nprocs | Var _ -> true
  | Bin ((And | Or), _, _) -> false
  | Iown _ | Accessible _ | Await _ -> false
  | Elem (_, es) -> List.for_all fixed_cost_e es
  | Bin (_, a, b) -> fixed_cost_e a && fixed_cost_e b
  | Un (_, a) -> fixed_cost_e a
  | Mylb (s, _) | Myub (s, _) ->
      List.for_all
        (function
          | All -> true
          | At e -> fixed_cost_e e
          | Slice (a, b, c) ->
              fixed_cost_e a && fixed_cost_e b && fixed_cost_e c)
        s.sel

(* Element-store core, shared by the turn-stepped statement and the
   fused run; compiled quietly, it measures a batched loop's tally. *)
let compile_elem_assign ctx a idxs e =
  let k = new_site ctx (List.length idxs) in
  let fillr = charged ctx (c_fill ctx k idxs) in
  let rhsr = charged ctx (post ctx Costmodel.tally_mem (c_float_rhs ctx e)) in
  fun m ->
    fillr m;
    let off = write_check m k a in
    let x =
      try rhsr m with Evalexpr.Unowned_ref n -> Rules.unowned_read m.m_p n
    in
    store_site m k a x off

(* Run [f] with every charge diverted into a fresh tally; returns its
   result and the tally.  The closures it builds charge nothing. *)
let quietly ctx f =
  assert (not ctx.quiet);
  ctx.quiet <- true;
  ctx.qtally <- Costmodel.tally_zero;
  let x = f () in
  let t = ctx.qtally in
  ctx.quiet <- false;
  ctx.qtally <- Costmodel.tally_zero;
  (x, t)

(* Give back the sites allocated since [ctx.nsites] was [nsites]. *)
let drop_sites ctx nsites =
  while ctx.nsites > nsites do
    ctx.nsites <- ctx.nsites - 1;
    ctx.site_ranks <- List.tl ctx.site_ranks
  done

(* The exact per-execution cost of an element store, valid because the
   caller checked [fixed_cost_e] on every subexpression: the store is
   compiled with all charges diverted into a tally, and the code (with
   its sites) is discarded. *)
let elem_assign_tally ctx a idxs e =
  let nsites = ctx.nsites in
  let _, t = quietly ctx (fun () -> compile_elem_assign ctx a idxs e) in
  drop_sites ctx nsites;
  t

(* ------------------------------------------------------------------ *)
(* Range kernels (DESIGN.md §4d).  A batched loop — a counted loop
   whose body is one fixed-cost element store — runs its iterations as
   plain arithmetic over the float chunks of the segments its accesses
   walk, once [kenter] has checked, at loop entry and without charging
   anything, that the loop cannot abort: every access walks a range
   inside one segment of this processor that is not [Unowned] and has
   storage, and every scalar the body reads is bound.  These are the
   checks each iteration of the charged loop would make and pass, so a
   kernel that passes them may take the whole loop's charge up front.
   A loop they reject runs charged, statement by statement, and aborts
   where the interpreter aborts.

   Every subscript must be [v], [v + c], [v - c] ([v] the loop
   variable, [c] a literal) or loop-invariant: free of [v] and of
   symbol-table reads, evaluated once at entry. *)

type kdim =
  | Kv of int  (** the loop variable plus this literal *)
  | Kc of (machine -> int)  (** loop-invariant, charge-free *)

(* One element access of the body, walked through site [ka_site]. *)
type kacc = { ka_site : int; ka_arr : string; ka_dims : kdim array }

(* The right-hand side evaluates into the machine's unboxed register
   file [m_kreg]: each float node has its own register, so a kernel
   iteration allocates nothing.  Registers whose value is the same on
   every iteration (literals, scalars, and operations on those) are
   loaded once per loop entry, in dependency order. *)
type kernel = {
  k_accs : kacc array;  (** the store first, then the reads *)
  k_bound : int array;  (** bound flags of the scalars the body reads *)
  k_store : int;  (** the store's site *)
  k_loads : (int * (machine -> float)) array;  (** per-entry registers *)
  k_rhs : (machine -> int -> unit) option;
      (** fill the registers of iteration [t]; [None] when none varies *)
  k_root : int;  (** the register holding the stored value *)
}

exception Not_kernel

let rec invariant v = function
  | Int _ | Float _ | Bool _ | Mypid | Nprocs -> true
  | Var x -> x <> v
  | Bin (_, a, b) -> invariant v a && invariant v b
  | Un (_, a) -> invariant v a
  | Elem _ | Mylb _ | Myub _ | Iown _ | Accessible _ | Await _ -> false

(* The float operations [cf] compiles, by operator ([kflt] admits no
   other). *)
let[@inline] fop op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Min -> Float.min x y
  | _ -> Float.max x y

(* The kernel of [a[idxs] = e] in a loop over [v], or [None] when some
   subscript or operation has no kernel form (the loop then always runs
   charged).  The right-hand side mirrors [cf]/[ci]: the same float and
   int operations in the same tree, hence bit-identical values; it has
   no operation that can raise (no integer division or modulo). *)
let kcompile ctx v a idxs e =
  let nsites = ctx.nsites in
  let accs = ref [] and bound = ref [] and loads = ref [] and nregs = ref 0 in
  let reg () =
    let d = !nregs in
    incr nregs;
    d
  in
  let load f =
    let d = reg () in
    loads := (d, f) :: !loads;
    (d, None)
  in
  let kdim = function
    | Var x when x = v -> Kv 0
    | Bin (Add, Var x, Int c) when x = v -> Kv c
    | Bin (Sub, Var x, Int c) when x = v -> Kv (-c)
    | e when invariant v e ->
        Kc (fst (quietly ctx (fun () -> (c_idx ctx e).run)))
    | _ -> raise Not_kernel
  in
  let access arr es =
    let dims = Array.of_list (List.map kdim es) in
    let k = new_site ctx (Array.length dims) in
    accs := { ka_site = k; ka_arr = arr; ka_dims = dims } :: !accs;
    k
  in
  let scalar x =
    let sl = slot ctx x in
    if not (List.mem sl.v_id !bound) then bound := sl.v_id :: !bound;
    sl.v_off
  in
  let rec kint e : machine -> int -> int =
    if ty ctx e <> SInt then raise Not_kernel;
    match e with
    | Int n -> fun _ _ -> n
    | Mypid -> fun m _ -> m.m_pid1
    | Nprocs -> fun m _ -> m.m_p.Rules.run.Rules.nprocs
    | Var x when x = v -> fun m t -> m.m_klo + (t * m.m_kstep)
    | Var x ->
        let off = scalar x in
        fun m _ -> Array.unsafe_get m.m_ints off
    | Bin (((Add | Sub | Mul) as op), a, b) -> (
        let fa = kint a and fb = kint b in
        match op with
        | Add -> fun m t -> fa m t + fb m t
        | Sub -> fun m t -> fa m t - fb m t
        | _ -> fun m t -> fa m t * fb m t)
    | Un (Neg, a) ->
        let fa = kint a in
        fun m t -> -fa m t
    | _ -> raise Not_kernel
  (* the register holding [e]'s value, and the code that fills it on
     each iteration ([None]: loaded once per entry) *)
  and kflt e : int * (machine -> int -> unit) option =
    if ty ctx e <> SFloat then raise Not_kernel;
    match e with
    | Float x -> load (fun _ -> x)
    | Var x ->
        let off = scalar x in
        load (fun m -> Array.unsafe_get m.m_flts off)
    | Elem (arr, es) ->
        let k = access arr es and d = reg () in
        ( d,
          Some
            (fun m t ->
              let s = Array.unsafe_get m.m_sites k in
              Array.unsafe_set m.m_kreg d
                (Array.unsafe_get s.s_data (s.s_base + (t * s.s_step)))) )
    | Bin (((Add | Sub | Mul | Div | Min | Max) as op), a, b) -> (
        let ra, ca = knum a in
        let rb, cb = knum b in
        match (ca, cb) with
        | None, None ->
            load (fun m ->
                let r = m.m_kreg in
                fop op (Array.unsafe_get r ra) (Array.unsafe_get r rb))
        | Some f, None | None, Some f ->
            let d = reg () in
            ( d,
              Some
                (fun m t ->
                  f m t;
                  let r = m.m_kreg in
                  Array.unsafe_set r d
                    (fop op (Array.unsafe_get r ra) (Array.unsafe_get r rb))) )
        | Some f, Some g ->
            let d = reg () in
            ( d,
              Some
                (fun m t ->
                  f m t;
                  g m t;
                  let r = m.m_kreg in
                  Array.unsafe_set r d
                    (fop op (Array.unsafe_get r ra) (Array.unsafe_get r rb))) ))
    | Un (Neg, a) -> (
        match kflt a with
        | ra, None -> load (fun m -> -.Array.unsafe_get m.m_kreg ra)
        | ra, Some f ->
            let d = reg () in
            ( d,
              Some
                (fun m t ->
                  f m t;
                  let r = m.m_kreg in
                  Array.unsafe_set r d (-.Array.unsafe_get r ra)) ))
    | _ -> raise Not_kernel
  and knum e =
    match ty ctx e with
    | SInt ->
        let f = kint e and d = reg () in
        ( d,
          Some (fun m t -> Array.unsafe_set m.m_kreg d (float_of_int (f m t))) )
    | _ -> kflt e
  in
  match
    let store = access a idxs in
    (store, knum e)
  with
  | store, (root, rhs) ->
      ctx.kregs <- max ctx.kregs !nregs;
      Some
        {
          k_accs = Array.of_list (List.rev !accs);
          k_bound = Array.of_list !bound;
          k_store = store;
          k_loads = Array.of_list (List.rev !loads);
          k_rhs = rhs;
          k_root = root;
        }
  | exception Not_kernel ->
      drop_sites ctx nsites;
      None

(* Bind access [a] for [n >= 1] iterations from [lo] by [step]: the
   walk must lie in one segment of this processor that is not
   [Unowned] and has storage.  Live segments are pairwise disjoint, so
   that segment is the one every per-element lookup of the walk would
   find. *)
let kbind m lo step n a =
  let s = Array.unsafe_get m.m_sites a.ka_site in
  let idx = s.s_idx and dims = a.ka_dims in
  for d = 0 to Array.length dims - 1 do
    idx.(d) <- (match dims.(d) with Kv c -> lo + c | Kc r -> r m)
  done;
  match Symtab.elem_seg m.m_p.Rules.st a.ka_arr idx with
  | Some { Symtab.status; data = Some data; seg_box; _ }
    when status <> State.Unowned ->
      (* the first element is in the segment; the walk stays in it when
         it moves by whole strides and ends inside *)
      let last = (n - 1) * step in
      let ok = ref true and w = ref 1 and mul = ref 0 in
      for d = Array.length dims - 1 downto 0 do
        let tr = Box.dim seg_box (d + 1) in
        (match dims.(d) with
        | Kv _ ->
            if idx.(d) + last > tr.Triplet.hi || step mod tr.Triplet.stride <> 0
            then ok := false
            else mul := !mul + (step / tr.Triplet.stride * !w)
        | Kc _ -> ());
        w := !w * Triplet.count tr
      done;
      !ok
      && begin
           s.s_data <- data;
           s.s_base <- Box.offset_arr seg_box idx;
           s.s_step <- !mul;
           true
         end
  | _ -> false

(* The charge-free entry check: every scalar read bound, every access
   bound.  An invariant subscript that raises rejects the loop, so the
   charged loop raises it at its exact point. *)
let kenter k m lo step n =
  Array.for_all (fun id -> Bytes.unsafe_get m.m_bnd id <> '\000') k.k_bound
  &&
  match Array.for_all (kbind m lo step n) k.k_accs with
  | ok -> ok
  | exception _ -> false

(* Run the [n] iterations in order, reads seeing earlier writes. *)
let krun k m lo step n =
  m.m_klo <- lo;
  m.m_kstep <- step;
  let r = m.m_kreg in
  for i = 0 to Array.length k.k_loads - 1 do
    let d, f = Array.unsafe_get k.k_loads i in
    Array.unsafe_set r d (f m)
  done;
  let s = Array.unsafe_get m.m_sites k.k_store in
  let data = s.s_data and base = s.s_base and st = s.s_step in
  let root = k.k_root in
  match k.k_rhs with
  | None ->
      let x = Array.unsafe_get r root in
      for t = 0 to n - 1 do
        Array.unsafe_set data (base + (t * st)) x
      done
  | Some f ->
      for t = 0 to n - 1 do
        f m t;
        Array.unsafe_set data (base + (t * st)) (Array.unsafe_get r root)
      done

let kbuf m n =
  if Array.length m.m_kbuf < n then m.m_kbuf <- Array.make n 0.0;
  m.m_kbuf

let ktmp m n =
  if Array.length m.m_ktmp < n then m.m_ktmp <- Array.make n 0.0;
  m.m_ktmp

(* Revalidate a site's kernel plan against [box]: succeeds when [box]
   is the cached section translated along at most one dimension and
   every piece, equally shifted, still lands inside its original
   segment — which must itself still be owned with the same chunk.
   Ownership moves at segment granularity and retired descriptors are
   never resurrected, so these per-descriptor checks subsume a
   generation check: a valid plan is exactly the decomposition a fresh
   scan would produce (pieces of pairwise-disjoint live segments whose
   counts sum to the section's, i.e. an exact cover).  On success each
   piece's [kp_shift] holds its chunk-offset delta. *)
let replant site (box : Box.t) =
  match site.s_kbox with
  | None -> false
  | Some cached ->
      let rank = Box.rank cached in
      Box.rank box = rank
      && begin
           let dd = ref 0 and delta = ref 0 and ok = ref true in
           for d = 1 to rank do
             let tc = Box.dim cached d and tb = Box.dim box d in
             if not (Triplet.equal tc tb) then
               if
                 !dd = 0
                 && tb.Triplet.stride = tc.Triplet.stride
                 && tb.Triplet.lo - tc.Triplet.lo = tb.Triplet.hi - tc.Triplet.hi
               then begin
                 dd := d;
                 delta := tb.Triplet.lo - tc.Triplet.lo
               end
               else ok := false
           done;
           !ok
           && begin
                let d = !dd and dl = !delta in
                let pieces = site.s_kpieces in
                let np = Array.length pieces in
                let rec go i =
                  if i >= np then true
                  else
                    let p = pieces.(i) in
                    let sg = p.kp_seg in
                    sg.Symtab.status <> State.Unowned
                    && (match sg.Symtab.data with
                       | Some c -> c == p.kp_data
                       | None -> false)
                    && (if d = 0 then begin
                          p.kp_shift <- 0;
                          true
                        end
                        else
                          (* piece strides divide the segment stride's
                             multiples by construction, so membership of
                             the shifted low end plus the high bound
                             keeps the whole piece inside the segment *)
                          let pt = Box.dim p.kp_piece d
                          and st = Box.dim sg.Symtab.seg_box d in
                          Triplet.mem (pt.Triplet.lo + dl) st
                          && pt.Triplet.hi + dl <= st.Triplet.hi
                          && begin
                               p.kp_shift <-
                                 dl / st.Triplet.stride * p.kp_w.(d - 1);
                               true
                             end)
                    && go (i + 1)
                in
                go 0
              end
         end

(* Build a fresh plan for [box] from the table's piece decomposition
   (charges one covering query, like the scan it memoizes). *)
let plant st site arr (box : Box.t) =
  let pieces = ref [] and total = ref 0 in
  Symtab.iter_pieces st arr box (fun data piece ~seg ~seg_view ~box_view ->
      let runs = ref [] in
      Box.iter_runs2 piece ~a:seg_view ~b:box_view (fun src dst len ->
          runs := (src, dst, len) :: !runs);
      total := !total + Box.count piece;
      pieces :=
        {
          kp_seg = seg;
          kp_data = data;
          kp_piece = piece;
          kp_w = Box.weights seg.Symtab.seg_box;
          kp_runs = Array.of_list (List.rev !runs);
          kp_shift = 0;
        }
        :: !pieces);
  site.s_kbox <- Some box;
  site.s_kpieces <- Array.of_list (List.rev !pieces);
  site.s_ktotal <- !total

let plan_read site buf =
  Array.iter
    (fun p ->
      let sh = p.kp_shift in
      Array.iter
        (fun (src, dst, len) ->
          if len = 1 then buf.(dst) <- p.kp_data.(src + sh)
          else Array.blit p.kp_data (src + sh) buf dst len)
        p.kp_runs)
    site.s_kpieces

let plan_write site buf =
  Array.iter
    (fun p ->
      let sh = p.kp_shift in
      Array.iter
        (fun (src, dst, len) ->
          if len = 1 then p.kp_data.(src + sh) <- buf.(dst)
          else Array.blit buf dst p.kp_data (src + sh) len)
        p.kp_runs)
    site.s_kpieces

(* A plan that is one contiguous chunk run can transform in place,
   skipping both copies (the transform itself is identical float ops
   on identical values, so results stay bit-for-bit the same). *)
let plan_solid site n =
  match site.s_kpieces with
  | [| p |] -> (
      match p.kp_runs with
      | [| (src, 0, len) |] when len = n -> Some (p.kp_data, src + p.kp_shift)
      | _ -> None)
  | _ -> None

(* A compiled statement: the turn-stepped form plus either the fused
   form (which counts each statement it executes against the step
   budget, as it goes) or why it has none — the
   blocker the BENCH_exec fusion tables report, so a 1.0x row (e.g. the
   misaligned vecadd copy loop) names it instead of being silent.  A
   compound statement carries the first blocked inner statement's
   reason, so a guard whose body receives reports "transfer", not a
   generic "blocked body".  [sc_solo] marks statements worth fusing
   even alone: compound statements and inlined kernels collapse many
   scheduler turns into one.  [sc_guard] is the scannable form of an
   await-free guard, used when it is not fusable. *)
type sc = {
  sc_code : code;
  sc_fast : (machine -> unit, string) result;
  sc_solo : bool;
  sc_guard : guard option;
}

type blk = { b_units : units; b_fast : (machine -> unit, string) result }

let compose_fast (fasts : (machine -> unit) array) =
  match Array.length fasts with
  | 0 -> fun _ -> ()
  | 1 -> fasts.(0)
  | len ->
      fun m ->
        for i = 0 to len - 1 do
          (Array.unsafe_get fasts i) m
        done

let count m = Rules.count_step m.m_p.Rules.run

let rec cstmt ctx (s : stmt) : sc =
  let sc = cstmt_k ctx s in
  ctx.fs_total <- ctx.fs_total + 1;
  (match sc.sc_fast with
  | Ok _ -> ctx.fs_fusable <- ctx.fs_fusable + 1
  | Error why -> record_blocker ctx why);
  sc

and cstmt_k ctx (s : stmt) : sc =
  let stmt why code =
    { sc_code = code; sc_fast = Error why; sc_solo = false; sc_guard = None }
  in
  let transfer = stmt "transfer" in
  (* A one-turn statement running [run]: fusable iff [fusable], else
     blocked for [why]. *)
  let plain fusable why run =
    {
      sc_code =
        (fun m ->
          run m;
          A_next);
      sc_fast =
        (if fusable then
           Ok
             (fun m ->
               count m;
               run m)
         else Error why);
      sc_solo = false;
      sc_guard = None;
    }
  in
  match s with
  | Assign (Lvar v, e) ->
      let sl = slot ctx v in
      let off = sl.v_off and id = sl.v_id in
      let run =
        match sl.v_kind with
        | KInt ->
            let r = charged ctx (post ctx Costmodel.tally_mem (ci ctx e)) in
            fun m ->
              let x =
                try r m with Evalexpr.Unowned_ref n -> Rules.unowned_read m.m_p n
              in
              Array.unsafe_set m.m_ints off x;
              Bytes.unsafe_set m.m_bnd id '\001'
        | KFloat ->
            let r = charged ctx (post ctx Costmodel.tally_mem (cf ctx e)) in
            fun m ->
              let x =
                try r m with Evalexpr.Unowned_ref n -> Rules.unowned_read m.m_p n
              in
              Array.unsafe_set m.m_flts off x;
              Bytes.unsafe_set m.m_bnd id '\001'
        | KVal ->
            let r = charged ctx (post ctx Costmodel.tally_mem (cv ctx e)) in
            fun m ->
              let x =
                try r m with Evalexpr.Unowned_ref n -> Rules.unowned_read m.m_p n
              in
              m.m_vals.(off) <- x;
              Bytes.unsafe_set m.m_bnd id '\001'
      in
      plain (no_await_e e) "await-in-expr" run
  | Assign (Lelem (a, idxs), e) ->
      plain
        (List.for_all no_await_e (e :: idxs))
        "await-in-expr"
        (compile_elem_assign ctx a idxs e)
  | Guard (g, body) ->
      let cg = c_bool ctx g in
      let head =
        Costmodel.tally_cost ctx.cm
          (Costmodel.tally_add Costmodel.tally_guard cg.cost)
      in
      let bodyb = cblock ctx body in
      let test m =
        let p = m.m_p in
        p.Rules.guard_evals <- p.Rules.guard_evals + 1;
        if head <> 0.0 then Rules.charge p head;
        let b = try cg.run m with Evalexpr.Unowned_ref _ -> false in
        if b then p.Rules.guard_hits <- p.Rules.guard_hits + 1;
        b
      in
      let scannable = no_await_e g in
      {
        sc_code = (fun m -> if test m then A_block bodyb.b_units else A_next);
        sc_fast =
          (if not scannable then Error "await-in-guard"
           else
             Result.map
               (fun bf m ->
                 count m;
                 if test m then bf m)
               bodyb.b_fast);
        sc_solo = true;
        sc_guard =
          (if scannable then
             Some
               { g_test = test; g_body = bodyb.b_units; g_pure = table_free_e g }
           else None);
      }
  | For { var; lo; hi; step; body; _ } ->
      let cl = c_idx ctx lo and ch = c_idx ctx hi and cs = c_idx ctx step in
      let trip = map2 ctx (fun a b -> (a, b)) cl ch in
      let trip = map2 ctx (fun (a, b) c -> (a, b, c)) trip cs in
      let tripr = charged ctx trip in
      let sl = slot ctx var in
      let off = sl.v_off and id = sl.v_id in
      let set =
        match sl.v_kind with
        | KInt ->
            fun m n ->
              Array.unsafe_set m.m_ints off n;
              Bytes.unsafe_set m.m_bnd id '\001'
        | KVal ->
            fun m n ->
              m.m_vals.(off) <- Value.VInt n;
              Bytes.unsafe_set m.m_bnd id '\001'
        | KFloat -> assert false (* loop vars are never float-typed *)
      in
      let int_op = ctx.cm.Costmodel.time_int_op in
      let bodyb = cblock ctx body in
      let code m =
        let lo, hi, step = tripr m in
        Rules.check_step m.m_p step;
        Rules.charge m.m_p int_op;
        if lo <= hi then
          A_loop
            {
              l_lo = lo;
              l_hi = hi;
              l_step = step;
              l_set = set;
              l_body = bodyb.b_units;
            }
        else A_next
      in
      (* the specialized loop: each iteration charged and counted as it
         runs, exactly like the interpreter's loop frame *)
      let charged_loop bf m lo hi step =
        Rules.charge m.m_p int_op;
        let cur = ref lo in
        while !cur <= hi do
          set m !cur;
          cur := !cur + step;
          Rules.charge m.m_p int_op;
          bf m
        done
      in
      let fast =
        match (body, bodyb.b_fast) with
        | _ when not (List.for_all no_await_e [ lo; hi; step ]) ->
            Error "await-in-bounds"
        | _, Error why -> Error why
        | [ Assign (Lelem (a, idxs), e) ], Ok bf
          when List.for_all fixed_cost_e (e :: idxs) ->
            (* batched: a fixed-cost body, so the loop's whole charge is
               known at entry; it runs as a range kernel when the entry
               check passes and as the charged loop otherwise *)
            let tally = elem_assign_tally ctx a idxs e in
            let iter = int_op +. Costmodel.tally_cost ctx.cm tally in
            let kern = kcompile ctx var a idxs e in
            ctx.fs_loops <- ctx.fs_loops + 1;
            ctx.fs_batched <- ctx.fs_batched + 1;
            Ok
              (fun m ->
                count m;
                let lo, hi, step = tripr m in
                Rules.check_step m.m_p step;
                let n = if lo > hi then 0 else ((hi - lo) / step) + 1 in
                match kern with
                | Some k
                  when n > 0 && kenter k m lo step n
                       && Rules.reserve_steps m.m_p.Rules.run n ->
                    Rules.charge m.m_p (int_op +. (float_of_int n *. iter));
                    krun k m lo step n;
                    set m (lo + ((n - 1) * step))
                | _ -> charged_loop bf m lo hi step)
        | _, Ok bf ->
            ctx.fs_loops <- ctx.fs_loops + 1;
            Ok
              (fun m ->
                count m;
                let lo, hi, step = tripr m in
                Rules.check_step m.m_p step;
                charged_loop bf m lo hi step)
      in
      { sc_code = code; sc_fast = fast; sc_solo = true; sc_guard = None }
  | If (c, a, b) ->
      let cc = charged ctx (c_bool ctx c) in
      let run_cond m =
        try cc m with Evalexpr.Unowned_ref n -> Rules.unowned_cond m.m_p n
      in
      let ca = cblock ctx a and cbk = cblock ctx b in
      {
        sc_code =
          (fun m -> A_block (if run_cond m then ca.b_units else cbk.b_units));
        sc_fast =
          (match (ca.b_fast, cbk.b_fast) with
          | _ when not (no_await_e c) -> Error "await-in-cond"
          | Ok fa, Ok fb ->
              Ok
                (fun m ->
                  count m;
                  if run_cond m then fa m else fb m)
          | Error why, _ | Ok _, Error why -> Error why);
        sc_solo = true;
        sc_guard = None;
      }
  | Send_value (s, dest) -> (
      let r = charged ctx (csec ctx s) in
      let arr = s.arr in
      match dest with
      | Unspecified ->
          let none_thunk () = None in
          transfer (fun m ->
              let box = r m in
              Rules.send_value m.m_p ~arr ~box ~dests:none_thunk;
              A_next)
      | Directed es ->
          let cds = List.map (fun e -> charged ctx (c_idx ctx e)) es in
          transfer (fun m ->
              let box = r m in
              Rules.send_value m.m_p ~arr ~box ~dests:(fun () ->
                  Some (List.map (fun dr -> Rules.dest_pid m.m_p (dr m)) cds));
              A_next))
  | Send_owner sec | Send_owner_value sec | Recv_owner sec | Recv_owner_value sec
    ->
      let r = charged ctx (csec ctx sec) in
      let arr = sec.arr in
      let with_value =
        match s with Send_owner_value _ | Recv_owner_value _ -> true | _ -> false
      in
      let rule =
        match s with
        | Send_owner _ | Send_owner_value _ -> Rules.send_owner
        | _ -> Rules.recv_owner
      in
      transfer (fun m ->
          rule m.m_p ~with_value ~arr ~box:(r m);
          A_next)
  | Recv_value { into; from } ->
      let cinto = csec ctx into and cfrom = csec ctx from in
      let both = map2 ctx (fun a b -> (a, b)) cinto cfrom in
      let r = charged ctx both in
      let ia = into.arr and fa = from.arr in
      transfer (fun m ->
          let ib, fb = r m in
          Rules.recv_value m.m_p ~into:(ia, ib) ~from:(fa, fb);
          A_next)
  | Apply { fn; args } -> (
      match Xdp.Kernels.find ctx.kernels fn with
      | None ->
          stmt "unknown-kernel" (fun m -> Rules.unknown_kernel m.m_p fn)
      | Some k ->
          let names = List.map (fun (s : section) -> s.arr) args in
          let r = charged ctx (seq_list ctx (List.map (csec ctx) args)) in
          let sc =
            plain (List.for_all no_await_sec args) "await-in-args" (fun m ->
                let boxes = r m in
                Rules.apply m.m_p ~fn k (List.combine names boxes))
          in
          match args with
          | [ s ] when k == Xdp.Kernels.fft1d && Result.is_ok sc.sc_fast ->
              (* inline the Kernels.dht call path: resolve, check
                 ownership, transform in place over reused machine
                 buffers, charge the identical flop/mem cost —
                 replicating Rules.apply event for event. *)
              let rs = charged ctx (csec ctx s) in
              let arr = s.arr in
              ctx.fs_kernels <- ctx.fs_kernels + 1;
              let ks = new_site ctx 0 in
              (* Event-for-event replica of Rules.apply:
                 ownership query, pack (one covering scan), dht,
                 unpack (one covering scan), then the closed-form
                 flop/mem charge.  A valid marshalling plan stands
                 in for all three scans; their descriptor visits
                 are replayed at the same points so the charge
                 stream is unchanged even if the kernel raises
                 between pack and unpack. *)
              let fast m =
                count m;
                let box = rs m in
                let st = m.m_p.Rules.st in
                let site = m.m_sites.(ks) in
                let n = Box.count box in
                let live = Symtab.live_count st arr in
                if n > 0 && site.s_ktotal = n && replant site box then begin
                  Symtab.note_visits st (2 * live);
                  let tmp = ktmp m n in
                  (match plan_solid site n with
                  | Some (data, off) ->
                      Xdp.Kernels.dht_sub ~buf:data ~tmp ~off ~stride:1
                        ~n;
                      Symtab.note_visits st live
                  | None ->
                      let buf = kbuf m n in
                      plan_read site buf;
                      Xdp.Kernels.dht_sub ~buf ~tmp ~off:0 ~stride:1 ~n;
                      Symtab.note_visits st live;
                      plan_write site buf)
                end
                else begin
                  Rules.check_kernel_arg m.m_p ~fn arr box;
                  plant st site arr box;
                  let buf = kbuf m n and tmp = ktmp m n in
                  (* a partial cover reads as zeros: transitional
                     segments without storage contribute nothing,
                     exactly like the fresh buffer the reference
                     engine allocates *)
                  if site.s_ktotal < n then Array.fill buf 0 n 0.0;
                  plan_read site buf;
                  Xdp.Kernels.dht_sub ~buf ~tmp ~off:0 ~stride:1 ~n;
                  Symtab.note_visits st live;
                  plan_write site buf
                end;
                let flops = 5.0 *. float_of_int n *. Xdp.Kernels.log2f n in
                Rules.charge_kernel m.m_p ~flops ~elems:n
              in
              { sc with sc_fast = Ok fast; sc_solo = true }
          | _ -> sc)

(* Group each block's maximal runs of fusable statements into
   superinstructions; a singleton run is only worth the fused unit
   when the statement collapses turns by itself.  An unfusable
   await-free guard becomes a scannable [U_guard]. *)
and cblock ctx stmts : blk =
  let scs = List.map (cstmt ctx) stmts in
  let b_fast =
    match
      List.find_map
        (fun sc -> match sc.sc_fast with Error why -> Some why | Ok _ -> None)
        scs
    with
    | Some why -> Error why
    | None ->
        Ok
          (compose_fast
             (Array.of_list (List.map (fun sc -> Result.get_ok sc.sc_fast) scs)))
  in
  let units = ref [] in
  let flush = function
    | [] -> ()
    | [ sc ] when not sc.sc_solo -> units := U_stmt sc.sc_code :: !units
    | rev_run ->
        let run = List.rev rev_run in
        let fasts =
          Array.of_list (List.map (fun sc -> Result.get_ok sc.sc_fast) run)
        in
        let slow =
          Array.of_list (List.map (fun sc -> U_stmt sc.sc_code) run)
        in
        record_run ctx (Array.length fasts);
        units := U_fuse { fu_fast = compose_fast fasts; fu_slow = slow } :: !units
  in
  let pending = ref [] in
  List.iter
    (fun sc ->
      match sc.sc_fast with
      | Ok _ -> pending := sc :: !pending
      | Error _ ->
          flush !pending;
          pending := [];
          units :=
            (match sc.sc_guard with
            | Some g -> U_guard g
            | None -> U_stmt sc.sc_code)
            :: !units)
    scs;
  flush !pending;
  { b_units = Array.of_list (List.rev !units); b_fast }

(* ------------------------------------------------------------------ *)

type fusion_stats = {
  fs_statements : int;
  fs_fusable : int;
  fs_fused_units : int;
  fs_run_hist : (int * int) list;
  fs_spec_loops : int;
  fs_batched_loops : int;
  fs_inlined_kernels : int;
  fs_blockers : (string * int) list;
}

type cprog = {
  c_body : units;
  c_nints : int;
  c_nflts : int;
  c_nvals : int;
  c_nvars : int;
  c_site_ranks : int array;
  c_kregs : int;
  c_seed : (slot * Value.t) list;
  c_fstats : fusion_stats;
}

let body cp = cp.c_body
let fusion_stats cp = cp.c_fstats

let fusion_digest cp =
  let s = cp.c_fstats in
  let b = Buffer.create 128 in
  Printf.bprintf b
    "stmts=%d fusable=%d units=%d loops=%d batched=%d kernels=%d hist="
    s.fs_statements s.fs_fusable s.fs_fused_units s.fs_spec_loops
    s.fs_batched_loops s.fs_inlined_kernels;
  List.iter (fun (l, n) -> Printf.bprintf b "%d:%d," l n) s.fs_run_hist;
  Printf.bprintf b " blockers=";
  List.iter (fun (r, n) -> Printf.bprintf b "%s:%d," r n) s.fs_blockers;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fuse_default = true

let compile ~cost ~kernels ~scalars (p : program) =
  let vars = collect_vars p scalars in
  let tys = infer_types p scalars vars in
  let slots = Hashtbl.create 32 in
  let ni = ref 0 and nf = ref 0 and nv = ref 0 in
  List.iteri
    (fun id v ->
      let kind, off =
        match Hashtbl.find tys v with
        | SInt ->
            incr ni;
            (KInt, !ni - 1)
        | SFloat ->
            incr nf;
            (KFloat, !nf - 1)
        | SBool | SDyn ->
            incr nv;
            (KVal, !nv - 1)
        | SBot -> assert false
      in
      Hashtbl.add slots v { v_kind = kind; v_off = off; v_id = id })
    vars;
  let ctx =
    {
      cm = cost;
      kernels;
      tys;
      slots;
      shape_of =
        (fun name -> Xdp_dist.Layout.shape (decl_of p name).layout);
      nsites = 0;
      site_ranks = [];
      quiet = false;
      qtally = Costmodel.tally_zero;
      kregs = 0;
      fs_total = 0;
      fs_fusable = 0;
      fs_units = 0;
      fs_run_hist = [];
      fs_loops = 0;
      fs_batched = 0;
      fs_kernels = 0;
      fs_blockers = [];
    }
  in
  let body = (cblock ctx p.body).b_units in
  {
    c_body = body;
    c_nints = !ni;
    c_nflts = !nf;
    c_nvals = !nv;
    c_nvars = List.length vars;
    c_site_ranks = Array.of_list (List.rev ctx.site_ranks);
    c_kregs = ctx.kregs;
    c_seed =
      List.map (fun (v, x) -> (Hashtbl.find slots v, x)) scalars;
    c_fstats =
      {
        fs_statements = ctx.fs_total;
        fs_fusable = ctx.fs_fusable;
        fs_fused_units = ctx.fs_units;
        fs_run_hist = List.sort compare ctx.fs_run_hist;
        fs_spec_loops = ctx.fs_loops;
        fs_batched_loops = ctx.fs_batched;
        fs_inlined_kernels = ctx.fs_kernels;
        fs_blockers = List.sort compare ctx.fs_blockers;
      };
  }

let machine cp (p : Rules.proc) =
  let m =
    {
      m_pid1 = p.pid + 1;
      m_ints = Array.make cp.c_nints 0;
      m_flts = Array.make cp.c_nflts 0.0;
      m_vals = Array.make cp.c_nvals vfalse;
      m_bnd = Bytes.make cp.c_nvars '\000';
      m_sites = Array.map fresh_site cp.c_site_ranks;
      m_p = p;
      m_kbuf = [||];
      m_ktmp = [||];
      m_klo = 0;
      m_kstep = 0;
      m_kreg = Array.make cp.c_kregs 0.0;
    }
  in
  List.iter
    (fun ((sl : slot), x) ->
      (match sl.v_kind with
      | KInt -> m.m_ints.(sl.v_off) <- Value.to_int x
      | KFloat -> m.m_flts.(sl.v_off) <- Value.to_float x
      | KVal -> m.m_vals.(sl.v_off) <- x);
      Bytes.set m.m_bnd sl.v_id '\001')
    cp.c_seed;
  m
