(* The programmable-NIC fabric: verified {!Prog} programs attached
   per processor, staged once into closures at attach time (the same
   compile-once discipline as [Precompile]) and run on every directed
   value packet addressed to their processor.

   Placement in the stack (the idempotence-under-retransmit argument,
   DESIGN.md §9): the executor posts every send through [post_send],
   which sits {e above} the reliable transport and the rendezvous
   board — a packet traverses

     host send -> NIC fabric (filter/aggregate/fanout) -> transport -> board

   so NIC state is driven exclusively by the host program's posting
   order, which is identical between faulty and fault-free runs.
   Wire-level drop/duplicate/retransmit happen strictly below, on the
   messages the fabric chose to emit; a retransmitted or duplicated
   packet can therefore never re-run a NIC program, and aggregation
   banks are slot-indexed (last-write-wins, combined in slot order at
   emit time), so even a re-offered contribution would leave the
   emitted payload bit-identical.

   Timing: every fabric hop (host->NIC ingress, NIC->NIC forwarding)
   costs [nic_alpha + nic_beta*bytes], and each processed packet pays
   the program's static cost [nic_op * (1 + instrs)] — the distinct,
   much cheaper cost axis of NIC-originated traffic.  Whatever the
   fabric emits re-enters the ordinary transport/board path and pays
   full endpoint prices (and suffers the fault plan) from there. *)

module Costmodel = Xdp_sim.Costmodel
module Board = Xdp_sim.Board
module Trace = Xdp_sim.Trace

exception Nic_misuse of string

type pkt = { k_src1 : int; k_dst1 : int; k_elems : int; k_bytes : int }

type bank = {
  b_arity : int;
  b_op : Prog.aggop;
  b_emit : Prog.emit;
  b_vals : float array option array;  (* slot -> contribution *)
  b_ready : float array;  (* slot -> fabric arrival time *)
  mutable b_filled : int;
}

type caction =
  | C_pass
  | C_drop
  | C_redirect of (int array -> pkt -> int)
  | C_fanout of (int array -> pkt -> int) array
  | C_aggregate of { bank : bank; slot : int array -> pkt -> int }

type cinstr = {
  ci_guard : int array -> pkt -> bool;
  ci_sets : (int * (int array -> pkt -> int)) array;
  ci_action : caction;
}

type nic = {
  n_pid : int;  (* 0-based *)
  n_name : string;
  n_regs : int array;
  n_cost : float;  (* static per-packet program cost *)
  n_instrs : cinstr array;
}

type t = {
  f_nprocs : int;
  f_cost : Costmodel.t;
  f_tr : Trace.t;
  f_post :
    time:float ->
    src:int ->
    name:string ->
    kind:Board.kind ->
    payload:float array ->
    directed:int list option ->
    unit;
  f_nics : nic option array;
  mutable f_packets : int;
  mutable f_filtered : int;
  mutable f_absorbed : int;
  mutable f_emitted : int;
  mutable f_fanout_copies : int;
  mutable f_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Staging: one closure per expression node, built once at attach.
   Division and modulo are total (x/0 = 0) so every program is a pure
   function of (registers, header) — the verifier already rejected
   constant zero divisors as programmer error. *)

let rec compile_exp (e : Prog.exp) : int array -> pkt -> int =
  match e with
  | Prog.Lit n -> fun _ _ -> n
  | Prog.Fld Prog.F_src -> fun _ p -> p.k_src1
  | Prog.Fld Prog.F_dst -> fun _ p -> p.k_dst1
  | Prog.Fld Prog.F_elems -> fun _ p -> p.k_elems
  | Prog.Fld Prog.F_bytes -> fun _ p -> p.k_bytes
  | Prog.Reg r -> fun regs _ -> Array.unsafe_get regs r
  | Prog.Bin (op, a, b) -> (
      let a = compile_exp a and b = compile_exp b in
      match op with
      | Prog.Add -> fun r p -> a r p + b r p
      | Prog.Sub -> fun r p -> a r p - b r p
      | Prog.Mul -> fun r p -> a r p * b r p
      | Prog.Div -> fun r p -> (match b r p with 0 -> 0 | d -> a r p / d)
      | Prog.Mod -> fun r p -> (match b r p with 0 -> 0 | d -> a r p mod d)
      | Prog.Min -> fun r p -> Int.min (a r p) (b r p)
      | Prog.Max -> fun r p -> Int.max (a r p) (b r p))
  | Prog.Sel (c, x, y) ->
      let c = compile_cond c and x = compile_exp x and y = compile_exp y in
      fun r p -> if c r p then x r p else y r p

and compile_cond (c : Prog.cond) : int array -> pkt -> bool =
  match c with
  | Prog.True -> fun _ _ -> true
  | Prog.Cmp (op, a, b) -> (
      let a = compile_exp a and b = compile_exp b in
      match op with
      | Prog.Eq -> fun r p -> a r p = b r p
      | Prog.Ne -> fun r p -> a r p <> b r p
      | Prog.Lt -> fun r p -> a r p < b r p
      | Prog.Le -> fun r p -> a r p <= b r p
      | Prog.Gt -> fun r p -> a r p > b r p
      | Prog.Ge -> fun r p -> a r p >= b r p)
  | Prog.All cs ->
      let cs = Array.of_list (List.map compile_cond cs) in
      fun r p -> Array.for_all (fun c -> c r p) cs
  | Prog.Any cs ->
      let cs = Array.of_list (List.map compile_cond cs) in
      fun r p -> Array.exists (fun c -> c r p) cs
  | Prog.Not c ->
      let c = compile_cond c in
      fun r p -> not (c r p)

let compile_instr (i : Prog.instr) : cinstr =
  {
    ci_guard = compile_cond i.Prog.guard;
    ci_sets =
      Array.of_list
        (List.map (fun (r, e) -> (r, compile_exp e)) i.Prog.sets);
    ci_action =
      (match i.Prog.action with
      | Prog.Pass -> C_pass
      | Prog.Drop -> C_drop
      | Prog.Redirect e -> C_redirect (compile_exp e)
      | Prog.Fanout es ->
          C_fanout (Array.of_list (List.map compile_exp es))
      | Prog.Aggregate { slot; arity; op; emit } ->
          C_aggregate
            {
              bank =
                {
                  b_arity = arity;
                  b_op = op;
                  b_emit = emit;
                  b_vals = Array.make arity None;
                  b_ready = Array.make arity 0.0;
                  b_filled = 0;
                };
              slot = compile_exp slot;
            });
  }

let compile_nic ~cost ~pid (p : Prog.t) =
  {
    n_pid = pid;
    n_name = p.Prog.name;
    n_regs = Array.make Prog.max_regs 0;
    n_cost =
      cost.Costmodel.nic_op
      *. float_of_int (1 + List.length p.Prog.instrs);
    n_instrs = Array.of_list (List.map compile_instr p.Prog.instrs);
  }

(* ------------------------------------------------------------------ *)
(* Attach: verify every program, then check the whole-fabric
   obligations no single program can see — each forwarding target
   must itself have a NIC program, and the forwarding graph must be
   acyclic (so a packet visits a statically bounded number of NICs). *)

let create ~nprocs ~cost ~trace ~post specs =
  let nics = Array.make nprocs None in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  List.iter
    (fun (pid, p) ->
      if !err <> None then ()
      else if pid < 0 || pid >= nprocs then
        fail "nic program '%s': attached to P%d outside the machine (1..%d)"
          p.Prog.name (pid + 1) nprocs
      else if nics.(pid) <> None then
        fail "P%d has two NIC programs attached" (pid + 1)
      else
        match Verify.check ~nprocs p with
        | Error e -> fail "%s" (Verify.error_to_string e)
        | Ok () -> nics.(pid) <- Some (compile_nic ~cost ~pid p))
    specs;
  (match !err with
  | Some _ -> ()
  | None ->
      (* forwarding edges: every To_nic target attached, and no cycle *)
      let edges = Array.make nprocs [] in
      List.iter
        (fun (pid, p) ->
          List.iter
            (fun q1 ->
              let q = q1 - 1 in
              if nics.(q) = None then
                fail
                  "nic program '%s' on P%d forwards to P%d, which has no \
                   NIC program attached"
                  p.Prog.name (pid + 1) q1
              else edges.(pid) <- q :: edges.(pid))
            (Prog.forward_targets p))
        specs;
      if !err = None then begin
        (* colors: 0 white, 1 on the current path, 2 done *)
        let color = Array.make nprocs 0 in
        let rec dfs path pid =
          if color.(pid) = 1 then
            fail "nic programs form a forwarding cycle: %s"
              (String.concat " -> "
                 (List.rev_map
                    (fun q -> Printf.sprintf "P%d" (q + 1))
                    (pid :: path)))
          else if color.(pid) = 0 then begin
            color.(pid) <- 1;
            List.iter (dfs (pid :: path)) edges.(pid);
            color.(pid) <- 2
          end
        in
        List.iter (fun (pid, _) -> if !err = None then dfs [] pid) specs
      end);
  match !err with
  | Some e -> Error e
  | None ->
      Ok
        {
          f_nprocs = nprocs;
          f_cost = cost;
          f_tr = trace;
          f_post = post;
          f_nics = nics;
          f_packets = 0;
          f_filtered = 0;
          f_absorbed = 0;
          f_emitted = 0;
          f_fanout_copies = 0;
          f_bytes = 0;
        }

let handles t dst = dst >= 0 && dst < t.f_nprocs && t.f_nics.(dst) <> None

let misuse nic fmt =
  Printf.ksprintf
    (fun s ->
      raise
        (Nic_misuse
           (Printf.sprintf "nic program '%s' on P%d: %s" nic.n_name
              (nic.n_pid + 1) s)))
    fmt

let check_dest nic what d1 =
  if d1 < 1 then misuse nic "%s P%d: no such processor" what d1

(* Fold the filled bank in ascending slot order — a fixed combination
   order, so the emitted floats are independent of contribution
   arrival order (and of wire jitter entirely, since the fabric sits
   above the wire). *)
let combine_bank nic (b : bank) =
  let first =
    match b.b_vals.(0) with
    | Some v -> v
    | None -> misuse nic "aggregation bank emitted with empty slot 0"
  in
  let acc = Array.copy first in
  let f =
    match b.b_op with
    | Prog.A_sum -> ( +. )
    | Prog.A_prod -> ( *. )
    | Prog.A_min -> Float.min
    | Prog.A_max -> Float.max
  in
  for s = 1 to b.b_arity - 1 do
    match b.b_vals.(s) with
    | Some v ->
        for j = 0 to Array.length acc - 1 do
          acc.(j) <- f acc.(j) v.(j)
        done
    | None -> misuse nic "aggregation bank emitted with empty slot %d" s
  done;
  acc

(* The synthetic rendezvous name of a NIC-to-NIC forwarded payload:
   never matched by hosts (it only exists inside the fabric and in
   traces), and loud enough to diagnose a parent program that lets it
   fall through to the board. *)
let uplink_name nic = Printf.sprintf "nic:%s@P%d" nic.n_name (nic.n_pid + 1)

let rec offer t ~time ~src ~dst ~name ~payload =
  let nic =
    match t.f_nics.(dst) with
    | Some n -> n
    | None -> invalid_arg "Fabric.offer: destination has no NIC program"
  in
  let elems = Array.length payload in
  let wire = Costmodel.message_bytes t.f_cost ~elems in
  (* ingress hop onto the fabric + the program's static cost *)
  let t_arr =
    time +. t.f_cost.Costmodel.nic_alpha
    +. (t.f_cost.Costmodel.nic_beta *. float_of_int wire)
    +. nic.n_cost
  in
  t.f_bytes <- t.f_bytes + wire;
  t.f_packets <- t.f_packets + 1;
  let pkt =
    { k_src1 = src + 1; k_dst1 = dst + 1; k_elems = elems; k_bytes = wire }
  in
  let regs = nic.n_regs in
  let fire (ci : cinstr) =
    Array.iter (fun (r, e) -> regs.(r) <- e regs pkt) ci.ci_sets;
    match ci.ci_action with
    | C_pass ->
        t.f_post ~time:t_arr ~src ~name ~kind:Board.Value ~payload
          ~directed:(Some [ dst ])
    | C_drop ->
        t.f_filtered <- t.f_filtered + 1;
        Trace.emit t.f_tr
          (Trace.Nic_drop { time = t_arr; pid = dst; src; name })
    | C_redirect f ->
        let d1 = f regs pkt in
        check_dest nic "redirect to" d1;
        if d1 > t.f_nprocs then misuse nic "redirect to P%d: no such processor" d1;
        Trace.emit t.f_tr
          (Trace.Nic_redirect
             { time = t_arr; pid = dst; src; name; dest = d1 - 1 });
        (* the re-routed packet goes straight to the board: a redirect
           retargets delivery, it does not re-enter the fabric (which
           keeps dynamic targets out of the acyclicity obligation) *)
        t.f_post ~time:t_arr ~src ~name ~kind:Board.Value ~payload
          ~directed:(Some [ d1 - 1 ])
    | C_fanout fs ->
        let dests =
          Array.map
            (fun f ->
              let d1 = f regs pkt in
              check_dest nic "fan-out to" d1;
              if d1 > t.f_nprocs then
                misuse nic "fan-out to P%d: no such processor" d1;
              d1 - 1)
            fs
        in
        t.f_fanout_copies <- t.f_fanout_copies + Array.length dests;
        Trace.emit t.f_tr
          (Trace.Nic_fanout
             { time = t_arr; pid = dst; name; copies = Array.length dests });
        (* one upstream packet, k downstream board sends originating
           at the NIC (the host paid one send_init for all of them) *)
        t.f_post ~time:t_arr ~src:dst ~name ~kind:Board.Value ~payload
          ~directed:(Some (Array.to_list dests))
    | C_aggregate { bank; slot } -> (
        let s = slot regs pkt in
        if s < 0 || s >= bank.b_arity then
          misuse nic "aggregation slot %d out of range [0,%d)" s bank.b_arity;
        (match bank.b_vals.(s) with
        | None -> bank.b_filled <- bank.b_filled + 1
        | Some prev ->
            if Array.length prev <> elems then
              misuse nic
                "aggregation slot %d re-filled with %d elements (had %d)" s
                elems (Array.length prev));
        (match bank.b_vals.(0) with
        | Some v0 when Array.length v0 <> elems ->
            misuse nic
              "aggregation payload shape mismatch: slot %d has %d elements, \
               slot 0 has %d"
              s elems (Array.length v0)
        | _ -> ());
        bank.b_vals.(s) <- Some (Array.copy payload);
        bank.b_ready.(s) <- Float.max bank.b_ready.(s) t_arr;
        t.f_absorbed <- t.f_absorbed + 1;
        Trace.emit t.f_tr
          (Trace.Nic_absorb { time = t_arr; pid = dst; src; name; slot = s });
        if bank.b_filled = bank.b_arity then begin
          let combined = combine_bank nic bank in
          let t_emit = Array.fold_left Float.max 0.0 bank.b_ready in
          (* reset so the bank can run another round *)
          Array.fill bank.b_vals 0 bank.b_arity None;
          Array.fill bank.b_ready 0 bank.b_arity 0.0;
          bank.b_filled <- 0;
          t.f_emitted <- t.f_emitted + 1;
          let emit_name =
            match bank.b_emit with
            | Prog.To_host nm -> nm
            | Prog.To_nic _ -> uplink_name nic
          in
          Trace.emit t.f_tr
            (Trace.Nic_emit
               {
                 time = t_emit;
                 pid = dst;
                 name = emit_name;
                 parts = bank.b_arity;
               });
          match bank.b_emit with
          | Prog.To_host nm ->
              (* delivered to this NIC's own host through the normal
                 (possibly faulty) endpoint path *)
              t.f_post ~time:t_emit ~src:dst ~name:nm ~kind:Board.Value
                ~payload:combined ~directed:(Some [ dst ])
          | Prog.To_nic q1 ->
              (* one fabric hop up the tree; attach-time checks
                 guarantee the target NIC exists and the forwarding
                 graph is acyclic, so this recursion terminates *)
              offer t ~time:t_emit ~src:dst ~dst:(q1 - 1)
                ~name:(uplink_name nic) ~payload:combined
        end)
  in
  let n = Array.length nic.n_instrs in
  let rec go i =
    if i >= n then
      (* no guard matched: pass through *)
      t.f_post ~time:t_arr ~src ~name ~kind:Board.Value ~payload
        ~directed:(Some [ dst ])
    else
      let ci = Array.unsafe_get nic.n_instrs i in
      if ci.ci_guard regs pkt then fire ci else go (i + 1)
  in
  go 0

(* The NIC-diversion rule: a directed value send is partitioned
   between its NIC-attached destinations, each offered to its NIC, and
   the plain ones, which go to the wire below in one post.  Every
   other send passes straight down. *)
let post_send t ~time ~src ~name ~kind ~payload ~directed =
  match (kind, directed) with
  | Board.Value, Some dsts when List.exists (handles t) dsts ->
      let nicked, plain = List.partition (handles t) dsts in
      if plain <> [] then
        t.f_post ~time ~src ~name ~kind ~payload ~directed:(Some plain);
      List.iter (fun dst -> offer t ~time ~src ~dst ~name ~payload) nicked
  | _ -> t.f_post ~time ~src ~name ~kind ~payload ~directed

let packets t = t.f_packets
let filtered t = t.f_filtered
let absorbed t = t.f_absorbed
let emitted t = t.f_emitted
let fanout_copies t = t.f_fanout_copies
let fabric_bytes t = t.f_bytes

(* Endpoint messages saved by in-flight folding: every absorbed
   payload was a message that no longer reaches an endpoint; every
   emit re-materializes one. *)
let msgs_saved t = t.f_absorbed - t.f_emitted
