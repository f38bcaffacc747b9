open Xdp.Ir
open Xdp_util
module Symtab = Xdp_symtab.Symtab
module State = Xdp_symtab.State
module Board = Xdp_sim.Board
module Costmodel = Xdp_sim.Costmodel
module Trace = Xdp_sim.Trace
module Faultplan = Xdp_net.Faultplan
module Transport = Xdp_net.Transport
module Fabric = Xdp_nic.Fabric

exception Deadlock = Rules.Deadlock
exception Xdp_misuse = Rules.Xdp_misuse

type engine = [ `Interp | `Compiled ]

let engine_names =
  [
    ("compiled", `Compiled);
    ("staged", `Compiled);
    ("interp", `Interp);
    ("interpreter", `Interp);
    ("reference", `Interp);
  ]

let engine_of_string s =
  match List.assoc_opt s engine_names with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown engine '%s' (accepted: %s)" s
           (String.concat ", " (List.map fst engine_names)))

let engine_name = function `Compiled -> "compiled" | `Interp -> "interp"

(* The staged engine is the default; XDP_ENGINE=interp selects the
   tree-walking reference interpreter process-wide (what the CI matrix
   flips), read once at module initialization.  Unknown values fail
   loudly — a typo here would silently benchmark the wrong engine. *)
let default_engine : engine =
  match Sys.getenv_opt "XDP_ENGINE" with
  | None | Some "" -> `Compiled
  | Some s -> (
      match engine_of_string s with
      | Ok e -> e
      | Error msg -> invalid_arg ("XDP_ENGINE: " ^ msg))

(* Superinstruction accounting, kept out of {!Trace.stats} so the
   engine-parity checks can keep comparing whole stats records. *)
type fusion = { fused_turns : int; fused_statements : int }

type result = {
  arrays : (string * Tensor.t) list;
  stats : Trace.stats;
  trace : Trace.t;
  symtabs : Symtab.t array;
  fusion : fusion;
}

let array r name =
  match List.assoc_opt name r.arrays with
  | Some t -> t
  | None -> invalid_arg ("Exec.array: no array " ^ name)

(* ------------------------------------------------------------------ *)
(* A processor as the scheduler sees it: its {!Rules} state, its
   engine's state ['x], and whether it can run. *)

type blocked = { on_name : string; on_box : Box.t }

type 'x proc = {
  rp : Rules.proc;
  x : 'x;
  mutable status : [ `Ready | `Blocked of blocked | `Done ];
}

let block pr name box =
  let p = pr.rp in
  pr.status <- `Blocked { on_name = name; on_box = box };
  if Trace.enabled p.Rules.run.tr then
    Trace.emit p.run.tr
      (Trace.Blocked
         {
           time = p.times.clock;
           pid = p.pid;
           on = Rules.section_name name box;
         })

(* ------------------------------------------------------------------ *)
(* The reference interpreter: Figure 1 as a statement step, walking
   the IR.  The compiled engine is held to it bit for bit. *)

type iframe =
  | Stmts of stmt list
  | Loop of {
      var : string;
      mutable cur : int;
      hi : int;
      step : int;
      body : stmt list;
    }

type tree = {
  env : Evalexpr.env;
  h : Evalexpr.hooks;
  mutable stack : iframe list;
}

(* One hooks value (and scratch pool) per processor for the whole run. *)
let tree_of ~shape_of (p : Rules.proc) body =
  let h =
    {
      Evalexpr.mypid1 = p.pid + 1;
      nprocs = p.run.nprocs;
      shape_of;
      elem =
        (fun name idx ->
          if not (Symtab.owned_element p.st name idx) then
            raise
              (Evalexpr.Unowned_ref
                 (Rules.section_name name (Box.point (Array.to_list idx))))
          else Symtab.get_a p.st name idx);
      iown = Rules.iown p;
      accessible = Rules.accessible p;
      await = Rules.await p;
      mylb = Rules.mylb p;
      myub = Rules.myub p;
      charge = Rules.charge p;
      cm = p.run.cost;
      scratch = Evalexpr.Scratch.create ();
    }
  in
  { env = Hashtbl.create 16; h; stack = [ Stmts body ] }

(* The value of [e]; reading an unowned element is a misuse here,
   outside a compute rule. *)
let value p t e =
  try Evalexpr.eval t.h t.env e
  with Evalexpr.Unowned_ref n -> Rules.unowned_read p n

(* Execute one statement; raises Evalexpr.Blocked_on to request a
   retry once the named section becomes accessible. *)
let exec_stmt (p : Rules.proc) t s =
  let h = t.h and cost = p.run.cost in
  let section s = Evalexpr.resolve_section h t.env s in
  match s with
  | Assign (Lvar v, e) ->
      let x = value p t e in
      Rules.charge p cost.time_mem;
      Hashtbl.replace t.env v x
  | Assign (Lelem (a, idxs), e) ->
      let idx = List.map (Evalexpr.eval_int h t.env) idxs in
      if not (Symtab.iown p.st a (Box.point idx)) then
        Rules.unowned_write p a (Box.point idx);
      let x = Value.to_float (value p t e) in
      Rules.charge p cost.time_mem;
      Symtab.set p.st a idx x
  | Guard (g, body) ->
      p.guard_evals <- p.guard_evals + 1;
      if Evalexpr.eval_guard h t.env g then begin
        p.guard_hits <- p.guard_hits + 1;
        t.stack <- Stmts body :: t.stack
      end
  | For { var; lo; hi; step; body; _ } ->
      let lo = Evalexpr.eval_int h t.env lo in
      let hi = Evalexpr.eval_int h t.env hi in
      let step = Evalexpr.eval_int h t.env step in
      Rules.check_step p step;
      Rules.charge p cost.time_int_op;
      if lo <= hi then t.stack <- Loop { var; cur = lo; hi; step; body } :: t.stack
  | If (c, a, b) ->
      let v =
        try Value.to_bool (Evalexpr.eval h t.env c)
        with Evalexpr.Unowned_ref n -> Rules.unowned_cond p n
      in
      t.stack <- Stmts (if v then a else b) :: t.stack
  | Send_value (s, dest) ->
      let box = section s in
      let dests =
        match dest with
        | Unspecified -> fun () -> None
        | Directed es ->
            fun () ->
              Some
                (List.map
                   (fun e -> Rules.dest_pid p (Evalexpr.eval_int h t.env e))
                   es)
      in
      Rules.send_value p ~arr:s.arr ~box ~dests
  | Send_owner s -> Rules.send_owner p ~with_value:false ~arr:s.arr ~box:(section s)
  | Send_owner_value s ->
      Rules.send_owner p ~with_value:true ~arr:s.arr ~box:(section s)
  | Recv_value { into; from } ->
      let into_box = section into in
      let from_box = section from in
      Rules.recv_value p ~into:(into.arr, into_box) ~from:(from.arr, from_box)
  | Recv_owner s -> Rules.recv_owner p ~with_value:false ~arr:s.arr ~box:(section s)
  | Recv_owner_value s ->
      Rules.recv_owner p ~with_value:true ~arr:s.arr ~box:(section s)
  | Apply { fn; args } -> (
      match Xdp.Kernels.find Xdp.Kernels.default fn with
      | None -> Rules.unknown_kernel p fn
      | Some k ->
          let boxes = List.map section args in
          Rules.apply p ~fn k
            (List.map2 (fun (s : section) b -> (s.arr, b)) args boxes))

(* One scheduler turn: pop and run the next statement, or advance a
   loop (its own charged turn). *)
let step_tree pr =
  let t = pr.x and p = pr.rp in
  match t.stack with
  | [] -> pr.status <- `Done
  | Stmts [] :: rest -> t.stack <- rest
  | Stmts (s :: rest) :: frames -> (
      t.stack <- Stmts rest :: frames;
      Rules.count_step p.run;
      try exec_stmt p t s
      with Evalexpr.Blocked_on (name, box) ->
        (* Undo the pop; retry the statement when accessible. *)
        t.stack <- Stmts (s :: rest) :: frames;
        block pr name box)
  | Loop l :: rest ->
      if l.cur > l.hi then t.stack <- rest
      else begin
        Hashtbl.replace t.env l.var (Value.VInt l.cur);
        l.cur <- l.cur + l.step;
        Rules.charge p p.run.cost.time_int_op;
        t.stack <- Stmts l.body :: Loop l :: rest
      end

(* ------------------------------------------------------------------ *)
(* The compiled engine's frames.  They mirror the interpreted ones
   micro-step for micro-step: one statement per turn, block-exit pops
   and loop advances are their own turns, a blocked statement is
   retried from scratch.  A fused run or a guard scan is the one
   exception, and is only taken when it cannot be told apart. *)

type cframe =
  | Code of { codes : Precompile.units; mutable ip : int }
  | Cloop of { cl : Precompile.loop; mutable ccur : int }

type comp = {
  m : Precompile.machine;
  mutable frames : cframe list;
  mutable turns : int; (* scheduler turns that ran several statements *)
  mutable covered : int; (* the statements those turns ran *)
}

let step_compiled pr =
  let k = pr.x and p = pr.rp in
  let r = p.Rules.run in
  match k.frames with
  | [] -> pr.status <- `Done
  | Code c :: frames -> (
      if c.ip >= Array.length c.codes then k.frames <- frames
      else
        match c.codes.(c.ip) with
        | Precompile.U_fuse f when r.inflight.(p.pid) = 0 ->
            (* the whole superinstruction runs in this turn, charging
               and counting exactly what the statements would *)
            c.ip <- c.ip + 1;
            let before = r.steps in
            f.Precompile.fu_fast k.m;
            k.turns <- k.turns + 1;
            k.covered <- k.covered + (r.steps - before)
        | Precompile.U_fuse f ->
            (* a receive is in flight: its delivery must be able to
               land between statements, so run the region one turn at
               a time (an uncounted, uncharged frame push) *)
            c.ip <- c.ip + 1;
            k.frames <- Code { codes = f.Precompile.fu_slow; ip = 0 } :: k.frames
        | Precompile.U_guard g ->
            (* evaluate this guard and, while guards keep failing, the
               ones that follow it; each is counted and charged in
               program order.  A false guard has no effect beyond its
               clock charge, so only a delivery landing mid-run could
               tell the difference — and it can only reach a guard
               that reads the symbol table. *)
            let codes = c.codes in
            let rec scan (g : Precompile.guard) n =
              c.ip <- c.ip + 1;
              Rules.count_step r;
              if g.g_test k.m then begin
                k.frames <- Code { codes = g.g_body; ip = 0 } :: k.frames;
                n
              end
              else if c.ip >= Array.length codes then n
              else
                match Array.unsafe_get codes c.ip with
                | Precompile.U_guard g' when g'.g_pure || r.inflight.(p.pid) = 0
                  ->
                    scan g' (n + 1)
                | _ -> n
            in
            let n = scan g 1 in
            if n > 1 then begin
              k.turns <- k.turns + 1;
              k.covered <- k.covered + n
            end
        | Precompile.U_stmt code -> (
            c.ip <- c.ip + 1;
            Rules.count_step r;
            match code k.m with
            | Precompile.A_next -> ()
            | Precompile.A_block codes ->
                k.frames <- Code { codes; ip = 0 } :: k.frames
            | Precompile.A_loop cl ->
                k.frames <- Cloop { cl; ccur = cl.Precompile.l_lo } :: k.frames
            | exception Evalexpr.Blocked_on (name, box) ->
                c.ip <- c.ip - 1;
                block pr name box))
  | Cloop c :: rest ->
      let cl = c.cl in
      if c.ccur > cl.Precompile.l_hi then k.frames <- rest
      else begin
        cl.Precompile.l_set k.m c.ccur;
        c.ccur <- c.ccur + cl.Precompile.l_step;
        Rules.charge p r.cost.time_int_op;
        k.frames <- Code { codes = cl.Precompile.l_body; ip = 0 } :: k.frames
      end

(* ------------------------------------------------------------------ *)
(* The scheduler.  The ready processors form a binary min-heap of pids
   ordered by (clock, pid): the root is the processor stepped next, and
   pid breaks clock ties exactly as an ascending-pid scan with a strict
   [<] would.  Only the stepped processor (always the root) and woken
   ones change key, so each turn costs O(log P), and a stepped
   processor that stays the earliest costs one or two compares.
   (Popping and re-pushing it through {!Heap} instead made the naive
   P=64 all-to-all 25-35% slower end to end.) *)

type 'x sched = {
  procs : 'x proc array;
  rps : Rules.proc array; (* procs.(i).rp: one load per heap compare *)
  ready : int array;
  mutable nready : int;
}

let before s a b =
  let ca = (Array.unsafe_get s.rps a).Rules.times.clock
  and cb = (Array.unsafe_get s.rps b).Rules.times.clock in
  ca < cb || (ca = cb && a < b)

let rec sift_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let x = s.ready.(i) and y = s.ready.(parent) in
    if before s x y then begin
      s.ready.(i) <- y;
      s.ready.(parent) <- x;
      sift_up s parent
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 in
  if l < s.nready then begin
    let r = l + 1 in
    let c = if r < s.nready && before s s.ready.(r) s.ready.(l) then r else l in
    let x = s.ready.(i) and y = s.ready.(c) in
    if before s y x then begin
      s.ready.(i) <- y;
      s.ready.(c) <- x;
      sift_down s c
    end
  end

(* Step the root processor [pid], then re-key it (a root whose key
   changed can only sink) or drop it if it blocked or finished. *)
let step_ready s step pid =
  let pr = s.procs.(pid) in
  step pr;
  match pr.status with
  | `Ready -> sift_down s 0
  | `Blocked _ | `Done ->
      s.nready <- s.nready - 1;
      s.ready.(0) <- s.ready.(s.nready);
      sift_down s 0

(* Complete the receive a delivery matches, then wake every processor
   whose blocking condition it satisfies. *)
let deliver s tr (d : Board.delivery) =
  Rules.deliver s.rps.(d.dst) d;
  Array.iter
    (fun pr ->
      let p = pr.rp in
      match pr.status with
      | `Blocked b when Symtab.accessible p.Rules.st b.on_name b.on_box ->
          pr.status <- `Ready;
          p.times.clock <- Float.max p.times.clock d.arrival;
          s.ready.(s.nready) <- p.pid;
          s.nready <- s.nready + 1;
          sift_up s (s.nready - 1);
          if Trace.enabled tr then
            Trace.emit tr
              (Trace.Unblocked { time = p.times.clock; pid = p.pid })
      | _ -> ())
    s.procs

(* Every processor blocked or done and nothing in flight: name the
   waiting (pid, section) set, and whether the wire lost a message or
   the program is missing a matching send or receive. *)
let diagnose_stuck (r : Rules.run) board procs =
  let waiting =
    Array.to_list procs
    |> List.filter_map (fun pr ->
           match pr.status with
           | `Blocked b ->
               Some
                 (Printf.sprintf "P%d waits on %s" (pr.rp.Rules.pid + 1)
                    (Rules.section_name b.on_name b.on_box))
           | _ -> None)
  in
  let failed = Transport.failures r.wire in
  if failed <> [] then
    (* Not a compiler bug: the wire ate a matched message and the
       transport ran out of retries.  Name the dead links. *)
    raise
      (Transport.Link_failed
         (Printf.sprintf
            "%s: blocked on messages dropped past max retries:\n%s\nwaiting:\n%s"
            r.prog_name
            (String.concat "\n"
               (List.map
                  (fun f -> Format.asprintf "  %a" Transport.pp_failure f)
                  failed))
            (String.concat "\n" waiting)))
  else if waiting <> [] then
    raise
      (Deadlock
         (Printf.sprintf
            "%s: all processors blocked or done with nothing in flight (no \
             messages lost — the program is missing a matching send or \
             receive):\n\
             %s\n\
             pending sends: %d, pending recvs: %d"
            r.prog_name
            (String.concat "\n" waiting)
            (List.length (Board.pending_sends board))
            (List.length (Board.pending_recvs board))
         ^ Printf.sprintf "\nsends: %s\nrecvs: %s"
             (String.concat "; "
                (List.map
                   (fun (n, _, src) -> Printf.sprintf "%s from P%d" n (src + 1))
                   (Board.pending_sends board)))
             (String.concat "; "
                (List.map
                   (fun (n, _, dst) -> Printf.sprintf "%s by P%d" n (dst + 1))
                   (Board.pending_recvs board)))))

(* The discrete-event loop: step the earliest ready processor, except
   that a delivery arriving no later than its clock lands first.  A
   run that stops with anyone blocked is diagnosed. *)
let drive (r : Rules.run) board procs step =
  let n = Array.length procs in
  let s =
    {
      procs;
      rps = Array.map (fun pr -> pr.rp) procs;
      ready = Array.init n Fun.id;
      nready = n;
    }
  in
  let rec loop () =
    let bi = if s.nready > 0 then Array.unsafe_get s.ready 0 else -1 in
    if not (Transport.has_delivery r.wire) then begin
      if bi >= 0 then begin
        step_ready s step bi;
        loop ()
      end
    end
    else
      let d =
        match Transport.peek_delivery r.wire with
        | Some d -> d
        | None -> assert false
      in
      if bi < 0 || d.arrival <= s.rps.(bi).times.clock then begin
        ignore (Transport.pop_delivery r.wire);
        deliver s r.tr d;
        loop ()
      end
      else begin
        step_ready s step bi;
        loop ()
      end
  in
  loop ();
  diagnose_stuck r board procs

(* ------------------------------------------------------------------ *)
(* Setup and results. *)

let make_procs (r : Rules.run) ~init ~free_on_release (p : program) =
  Array.init r.nprocs (fun pid ->
      let st = Symtab.create ~pid ~free_on_release () in
      List.iter
        (fun d ->
          (if d.universal then
             Symtab.declare_universal st ~name:d.arr_name
               ~shape:(Xdp_dist.Layout.shape d.layout)
           else
             Symtab.declare st ~name:d.arr_name ~layout:d.layout
               ~seg_shape:d.seg_shape);
          List.iter
            (fun (s : Symtab.seg) ->
              match s.data with
              | None -> ()
              | Some data ->
                  let i = ref 0 in
                  Box.iter
                    (fun idx ->
                      data.(!i) <- init d.arr_name idx;
                      incr i)
                    s.seg_box)
            (Symtab.segments st d.arr_name))
        p.decls;
      {
        Rules.run = r;
        pid;
        st;
        times = { clock = 0.0; busy = 0.0 };
        guard_evals = 0;
        guard_hits = 0;
      })

(* Gather distributed arrays into global tensors. *)
let gather decls (rps : Rules.proc array) =
  List.map
    (fun d ->
      let t = Tensor.create (Xdp_dist.Layout.shape d.layout) in
      (* universal arrays may diverge per processor; gather P1's copy
         by convention *)
      let sources = if d.universal then [| rps.(0) |] else rps in
      Array.iter
        (fun (p : Rules.proc) ->
          List.iter
            (fun (s : Symtab.seg) ->
              match (s.status, s.data) with
              | State.Unowned, _ | _, None -> ()
              | _, Some data ->
                  (* segment storage is the row-major packing of its
                     box: unpack with the allocation-free blit *)
                  Tensor.blit t s.seg_box data)
            (Symtab.segments p.st d.arr_name))
        sources;
      (d.arr_name, t))
    decls

let stats_of (r : Rules.run) board (rps : Rules.proc array) ~redist_stages =
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 rps in
  {
    Trace.makespan =
      Array.fold_left
        (fun acc (p : Rules.proc) -> Float.max acc p.times.clock)
        0.0 rps;
    messages = Board.messages_matched board;
    bytes = Board.bytes_matched board;
    ownership_transfers = r.ownership_transfers;
    guard_evals = sum (fun p -> p.Rules.guard_evals);
    guard_hits = sum (fun p -> p.Rules.guard_hits);
    busy = Array.map (fun (p : Rules.proc) -> p.times.busy) rps;
    finish = Array.map (fun (p : Rules.proc) -> p.times.clock) rps;
    peak_storage = Array.map (fun (p : Rules.proc) -> Symtab.peak_elements p.st) rps;
    statements = r.steps;
    unmatched_sends = List.length (Board.pending_sends board);
    unmatched_recvs = List.length (Board.pending_recvs board);
    retransmits = Transport.retransmits r.wire;
    acks = Transport.acks r.wire;
    dup_suppressed = Transport.dup_suppressed r.wire;
    packets_dropped = Transport.packets_dropped r.wire;
    net_overhead_bytes = Transport.overhead_bytes r.wire;
    link_failures = List.length (Transport.failures r.wire);
    nic_packets = Fabric.packets r.fabric;
    nic_filtered = Fabric.filtered r.fabric;
    nic_aggregated = Fabric.absorbed r.fabric;
    nic_emitted = Fabric.emitted r.fabric;
    nic_fanout_copies = Fabric.fanout_copies r.fabric;
    nic_msgs_saved = Fabric.msgs_saved r.fabric;
    nic_bytes = Fabric.fabric_bytes r.fabric;
    peak_inflight_bytes =
      (* pad the board's highest-pid-seen array to the machine size *)
      (let raw = Board.peak_inflight board in
       Array.init r.nprocs (fun pid ->
           if pid < Array.length raw then raw.(pid) else 0));
    redist_stages;
  }

let run ?(engine = default_engine) ?staged ?(cost = Costmodel.message_passing)
    ?(init = fun _ _ -> 0.0) ?(trace = false) ?(free_on_release = true)
    ?(max_steps = 20_000_000) ?(fault = Faultplan.none)
    ?(net = Transport.default_config) ?(nic = []) ?(redist_stages = 0) ~nprocs
    (p : program) =
  if nprocs <= 0 then invalid_arg "Exec.run: nprocs <= 0";
  if staged <> None && engine = `Interp then
    invalid_arg "Exec.run: ~staged supplied but engine is `Interp";
  List.iter
    (fun d ->
      let np = Xdp_dist.Layout.nprocs d.layout in
      if np <> nprocs then
        invalid_arg
          (Printf.sprintf
             "Exec.run: array %s is laid out over %d processors but the \
              machine has %d"
             d.arr_name np nprocs))
    p.decls;
  Xdp.Wf.check_exn p;
  let tr = Trace.create ~enabled:trace in
  let board = Board.create cost in
  (* The network stack, the same on every run: the board at the
     bottom, the reliable transport on it (a pass-through under
     [Faultplan.none]), the NIC fabric on top (a pass-through with no
     programs attached).  Everything the fabric emits re-enters the
     transport, so it pays full endpoint prices and suffers the fault
     plan; retransmits and duplicates happen strictly below the
     fabric, which is what makes NIC programs idempotent under
     retransmit. *)
  let wire = Transport.create ~config:net ~plan:fault ~trace:tr board ~cost in
  let fabric =
    match
      Fabric.create ~nprocs ~cost ~trace:tr ~post:(Transport.post_send wire)
        nic
    with
    | Ok f -> f
    | Error e -> invalid_arg ("Exec.run: " ^ e)
  in
  let r =
    {
      Rules.prog_name = p.prog_name;
      nprocs;
      cost;
      tr;
      wire;
      fabric;
      pending = Hashtbl.create 64;
      inflight = Array.make nprocs 0;
      tokens = 0;
      ownership_transfers = 0;
      steps = 0;
      max_steps;
    }
  in
  let rps = make_procs r ~init ~free_on_release p in
  let start x rp = { rp; x = x rp; status = `Ready } in
  let fusion =
    match engine with
    | `Interp ->
        let shape_of name = Xdp_dist.Layout.shape (decl_of p name).layout in
        let tree rp = tree_of ~shape_of rp p.body in
        drive r board (Array.map (start tree) rps) step_tree;
        { fused_turns = 0; fused_statements = 0 }
    | `Compiled ->
        (* Stage once, share the code across processors; each gets its
           own slot frames and inline caches.  A caller that runs the
           same program many times (the batch service) passes the
           staged [cprog] back in via [?staged] — it must have been
           compiled from this program with the same cost model, which
           the batch cache guarantees by keying on a digest of both. *)
        let cp =
          match staged with
          | Some cp -> cp
          | None ->
              Precompile.compile ~cost ~kernels:Xdp.Kernels.default ~scalars:[] p
        in
        let codes = Precompile.body cp in
        let comp rp =
          {
            m = Precompile.machine cp rp;
            frames = [ Code { codes; ip = 0 } ];
            turns = 0;
            covered = 0;
          }
        in
        let procs = Array.map (start comp) rps in
        drive r board procs step_compiled;
        let sum f = Array.fold_left (fun acc pr -> acc + f pr.x) 0 procs in
        {
          fused_turns = sum (fun k -> k.turns);
          fused_statements = sum (fun k -> k.covered);
        }
  in
  {
    arrays = gather p.decls rps;
    stats = stats_of r board rps ~redist_stages;
    trace = tr;
    symtabs = Array.map (fun (rp : Rules.proc) -> rp.st) rps;
    fusion;
  }

let ownership_defects r (p : program) =
  let unowned = ref 0 and multi = ref 0 in
  List.iter
    (fun d ->
      if d.universal then ()
      else
      let full = Box.of_shape (Xdp_dist.Layout.shape d.layout) in
      Box.iter
        (fun idx ->
          let owners =
            Array.fold_left
              (fun acc st ->
                if Symtab.iown st d.arr_name (Box.point idx) then acc + 1
                else acc)
              0 r.symtabs
          in
          if owners = 0 then incr unowned
          else if owners > 1 then incr multi)
        full)
    p.decls;
  (!unowned, !multi)
