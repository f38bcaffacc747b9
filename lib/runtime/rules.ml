open Xdp_util
module Symtab = Xdp_symtab.Symtab
module State = Xdp_symtab.State
module Board = Xdp_sim.Board
module Costmodel = Xdp_sim.Costmodel
module Trace = Xdp_sim.Trace
module Transport = Xdp_net.Transport
module Fabric = Xdp_nic.Fabric

exception Deadlock of string
exception Xdp_misuse of string

type pending = { p_kind : Board.kind; p_into : string * Box.t; p_arr : int }

type run = {
  prog_name : string;
  nprocs : int;
  cost : Costmodel.t;
  tr : Trace.t;
  wire : Transport.t;
  fabric : Fabric.t;
  arrays : (string, int) Hashtbl.t;
  pending : (int, pending) Hashtbl.t;
  mutable tokens : int;
  mutable ownership_transfers : int;
  mutable steps : int;
  max_steps : int;
}

type times = { mutable clock : float; mutable busy : float }

type proc = {
  run : run;
  pid : int;
  st : Symtab.t;
  times : times;
  mutable guard_evals : int;
  mutable guard_hits : int;
  inflight_into : int array;
}

let array_ids (p : Xdp.Ir.program) =
  let ids = Hashtbl.create 16 in
  List.iteri
    (fun id (d : Xdp.Ir.array_decl) -> Hashtbl.replace ids d.arr_name id)
    p.decls;
  ids

let section_name arr box = arr ^ Box.to_string box

let count_step r =
  r.steps <- r.steps + 1;
  if r.steps > r.max_steps then
    raise (Xdp_misuse (Printf.sprintf "step budget exceeded (%d)" r.max_steps))

let reserve_steps r n =
  n <= r.max_steps - r.steps
  && begin
       r.steps <- r.steps + n;
       true
     end

let now p = p.times.clock

let charge p c =
  p.times.clock <- p.times.clock +. c;
  p.times.busy <- p.times.busy +. c

(* ---- Diagnostics: each text is spelled here once ---- *)

let misuse p fmt =
  Printf.ksprintf
    (fun s ->
      raise
        (Xdp_misuse
           (Printf.sprintf "P%d at t=%.1f in %s: %s" (p.pid + 1) (now p)
              p.run.prog_name s)))
    fmt

let unowned_read p n = misuse p "read of unowned %s outside a compute rule" n
let unowned_cond p n = misuse p "read of unowned %s in if-condition" n
let unowned_write p arr box =
  misuse p "write to unowned element %s" (section_name arr box)

let unknown_kernel p fn = misuse p "unknown kernel %s" fn
let check_step p step = if step <= 0 then misuse p "non-positive loop step"

let dest_pid p pid1 =
  if pid1 < 1 || pid1 > p.run.nprocs then
    misuse p "send directed to invalid processor %d" pid1;
  pid1 - 1

let check_kernel_arg p ~fn arr box =
  if not (Symtab.iown p.st arr box) then
    misuse p "kernel %s applied to unowned section %s" fn (section_name arr box)

(* ---- Placement queries: each descriptor visited costs time_desc ---- *)

let charge_visits p before =
  let visited = Symtab.descriptor_visits p.st - before in
  charge p (float_of_int visited *. p.run.cost.time_desc)

let iown p name box =
  let before = Symtab.descriptor_visits p.st in
  let r = Symtab.iown p.st name box in
  charge_visits p before;
  r

let accessible p name box =
  let before = Symtab.descriptor_visits p.st in
  let r = Symtab.accessible p.st name box in
  charge_visits p before;
  r

let await p name box =
  let before = Symtab.descriptor_visits p.st in
  let s = Symtab.section_state p.st name box in
  charge_visits p before;
  match s with
  | State.Unowned -> false
  | State.Accessible -> true
  | State.Transitional -> raise (Evalexpr.Blocked_on (name, box))

let mylb p name box d = Symtab.mylb p.st name box d
let myub p name box d = Symtab.myub p.st name box d

(* ---- Transfers: each takes an already-resolved section and owns the
   exact per-event charges and trace emissions ---- *)

let send_value p ~arr ~box ~dests =
  let r = p.run in
  if not (Symtab.iown p.st arr box) then
    misuse p "value send of unowned section %s" (section_name arr box);
  let payload = Symtab.read_box p.st arr box in
  let directed = dests () in
  charge p
    (r.cost.time_send_init
    +. (float_of_int (Array.length payload) *. r.cost.time_mem));
  let name = section_name arr box in
  if Trace.enabled r.tr then
    Trace.emit r.tr
      (Trace.Send_init { time = now p; pid = p.pid; name; kind = "value" });
  Fabric.post_send r.fabric ~time:(now p) ~src:p.pid ~name ~kind:Board.Value
    ~payload ~directed

let send_owner p ~with_value ~arr ~box =
  let r = p.run in
  (match Symtab.section_state p.st arr box with
  | State.Unowned ->
      misuse p "ownership send of unowned section %s" (section_name arr box)
  | State.Transitional ->
      (* Owner sends block until the section is accessible. *)
      raise (Evalexpr.Blocked_on (arr, box))
  | State.Accessible -> ());
  let payload = if with_value then Symtab.read_box p.st arr box else [||] in
  let released = Symtab.release p.st arr box in
  let nsegs = List.length released in
  r.ownership_transfers <- r.ownership_transfers + 1;
  charge p
    (r.cost.time_send_init
    +. (float_of_int nsegs *. r.cost.time_owner_admin)
    +. (float_of_int (Array.length payload) *. r.cost.time_mem));
  let kind = if with_value then Board.Owner_value else Board.Owner in
  let name = section_name arr box in
  if Trace.enabled r.tr then
    Trace.emit r.tr
      (Trace.Send_init
         { time = now p; pid = p.pid; name; kind = Board.kind_to_string kind });
  Fabric.post_send r.fabric ~time:(now p) ~src:p.pid ~name ~kind ~payload
    ~directed:None

(* Register a receive as pending and in flight; returns its token. *)
let post_recv p ~kind ~into =
  let r = p.run in
  let a = Hashtbl.find r.arrays (fst into) in
  r.tokens <- r.tokens + 1;
  Hashtbl.replace r.pending r.tokens
    { p_kind = kind; p_into = into; p_arr = a };
  p.inflight_into.(a) <- p.inflight_into.(a) + 1;
  r.tokens

(* Top-level recursion: a guard scan asks once per guard, and a local
   closure would allocate on every call. *)
let rec clear counts arrs i =
  i < 0 || (counts.(arrs.(i)) = 0 && clear counts arrs (i - 1))

let unobserved p arrs = clear p.inflight_into arrs (Array.length arrs - 1)

let recv_owner p ~with_value ~arr ~box =
  let r = p.run in
  (match Symtab.section_state p.st arr box with
  | State.Unowned -> ()
  | State.Accessible | State.Transitional ->
      misuse p
        "ownership receive of section %s some element of which is already \
         owned"
        (section_name arr box));
  Symtab.expect_ownership p.st arr box;
  let kind = if with_value then Board.Owner_value else Board.Owner in
  let name = section_name arr box in
  let token = post_recv p ~kind ~into:(arr, box) in
  charge p (r.cost.time_recv_init +. r.cost.time_owner_admin);
  if Trace.enabled r.tr then
    Trace.emit r.tr
      (Trace.Recv_init
         { time = now p; pid = p.pid; name; kind = Board.kind_to_string kind });
  Transport.post_recv r.wire ~time:(now p) ~dst:p.pid ~name ~kind ~token

let recv_value p ~into:(into_arr, into_box) ~from:(from_arr, from_box) =
  let r = p.run in
  if not (Symtab.iown p.st into_arr into_box) then
    misuse p "receive into unowned section %s" (section_name into_arr into_box);
  if not (Symtab.accessible p.st into_arr into_box) then
    (* Blocks until the destination is accessible (Figure 1). *)
    raise (Evalexpr.Blocked_on (into_arr, into_box));
  if Box.count into_box <> Box.count from_box then
    misuse p "receive shape mismatch: %s <- %s"
      (section_name into_arr into_box)
      (section_name from_arr from_box);
  Symtab.mark_recv_init p.st into_arr into_box;
  let name = section_name from_arr from_box in
  let token = post_recv p ~kind:Board.Value ~into:(into_arr, into_box) in
  charge p r.cost.time_recv_init;
  if Trace.enabled r.tr then
    Trace.emit r.tr
      (Trace.Recv_init { time = now p; pid = p.pid; name; kind = "value" });
  Transport.post_recv r.wire ~time:(now p) ~dst:p.pid ~name ~kind:Board.Value
    ~token

let charge_kernel p ~flops ~elems =
  charge p
    ((flops *. p.run.cost.time_flop)
    +. (2.0 *. float_of_int elems *. p.run.cost.time_mem))

let apply p ~fn (k : Xdp.Kernels.t) pairs =
  List.iter (fun (arr, box) -> check_kernel_arg p ~fn arr box) pairs;
  let bufs = List.map (fun (arr, b) -> Symtab.read_box p.st arr b) pairs in
  let flops = k.Xdp.Kernels.flops bufs in
  k.Xdp.Kernels.apply bufs;
  List.iter2 (fun (arr, b) buf -> Symtab.write_box p.st arr b buf) pairs bufs;
  let elems = List.fold_left (fun acc (_, b) -> acc + Box.count b) 0 pairs in
  charge_kernel p ~flops ~elems

let deliver p (d : Board.delivery) =
  let r = p.run in
  let pend =
    match Hashtbl.find_opt r.pending d.token with
    | Some x -> x
    | None ->
        raise
          (Xdp_misuse
             (Printf.sprintf "delivery with unknown token for %s" d.name))
  in
  Hashtbl.remove r.pending d.token;
  p.inflight_into.(pend.p_arr) <- p.inflight_into.(pend.p_arr) - 1;
  let arr, box = pend.p_into in
  (match pend.p_kind with
  | Board.Value ->
      Symtab.write_box p.st arr box d.payload;
      Symtab.mark_recv_complete p.st arr box
  | Board.Owner -> Symtab.accept_ownership p.st arr box None
  | Board.Owner_value -> Symtab.accept_ownership p.st arr box (Some d.payload));
  if Trace.enabled r.tr then
    Trace.emit r.tr
      (Trace.Delivered
         {
           time = d.arrival;
           src = d.src;
           dst = d.dst;
           name = d.name;
           kind = Board.kind_to_string d.kind;
           bytes = d.bytes;
         })
