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

exception Deadlock of string
exception Xdp_misuse of string

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

type frame =
  | Stmts of stmt list
  | Loop of {
      var : string;
      mutable cur : int;
      hi : int;
      step : int;
      body : stmt list;
    }
  | Code of { codes : Precompile.units; mutable ip : int }
  | Cloop of { cl : Precompile.loop; mutable ccur : int }

type blocked = { on_name : string; on_box : Box.t }

type proc = {
  pid : int; (* 0-based *)
  env : Evalexpr.env;
  st : Symtab.t;
  mutable stack : frame list;
  mutable clock : float;
  mutable busy : float;
  mutable status : [ `Ready | `Blocked of blocked | `Done ];
  mutable guard_evals : int;
  mutable guard_hits : int;
  mutable mach : Precompile.machine option;
}

type pending = { p_kind : Board.kind; p_into : string * Box.t }

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

let section_name arr box = arr ^ Box.to_string box

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
  let ownership_transfers = ref 0 in
  let total_steps = ref 0 in
  let fused_turns = ref 0 in
  let fused_stmts = ref 0 in
  (* Receives in flight per posting processor.  A fused run (or a scan
     over guards that read the symbol table) is only sound while its
     processor has none: with no pending receive, no delivery can
     mutate this processor's symbol table mid-run, and fused
     statements neither post nor consume board state, so the whole run
     commutes with every other event at its clock. *)
  let inflight = Array.make nprocs 0 in
  let pending : (int, int * pending) Hashtbl.t = Hashtbl.create 64 in
  let token_counter = ref 0 in
  let fresh_token () =
    incr token_counter;
    !token_counter
  in
  let procs =
    Array.init nprocs (fun pid ->
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
          pid;
          env = Hashtbl.create 16;
          st;
          stack = [ Stmts p.body ];
          clock = 0.0;
          busy = 0.0;
          status = `Ready;
          guard_evals = 0;
          guard_hits = 0;
          mach = None;
        })
  in
  let shape_of name = Xdp_dist.Layout.shape (decl_of p name).layout in
  let charge_pr pr c =
    pr.clock <- pr.clock +. c;
    pr.busy <- pr.busy +. c
  in
  let hooks_of pr =
    let charge = charge_pr pr in
    let charged_desc f name box =
      let before = Symtab.descriptor_visits pr.st in
      let r = f name box in
      let visited = Symtab.descriptor_visits pr.st - before in
      charge (float_of_int visited *. cost.time_desc);
      r
    in
    {
      Evalexpr.mypid1 = pr.pid + 1;
      nprocs;
      shape_of;
      elem =
        (fun name idx ->
          if not (Symtab.owned_element pr.st name idx) then
            raise
              (Evalexpr.Unowned_ref
                 (section_name name (Box.point (Array.to_list idx))))
          else Symtab.get_a pr.st name idx);
      iown = charged_desc (Symtab.iown pr.st);
      accessible = charged_desc (Symtab.accessible pr.st);
      await =
        (fun name box ->
          match charged_desc (Symtab.section_state pr.st) name box with
          | State.Unowned -> false
          | State.Accessible -> true
          | State.Transitional -> raise (Evalexpr.Blocked_on (name, box)));
      mylb = (fun name box d -> Symtab.mylb pr.st name box d);
      myub = (fun name box d -> Symtab.myub pr.st name box d);
      charge;
      cm = cost;
      scratch = Evalexpr.Scratch.create ();
    }
  in
  (* One hooks value (and scratch pool) per processor for the whole
     run — the interpreter used to rebuild this record per statement. *)
  let hooks = Array.map hooks_of procs in
  let misuse_exn pr s =
    Xdp_misuse
      (Printf.sprintf "P%d at t=%.1f in %s: %s" (pr.pid + 1) pr.clock
         p.prog_name s)
  in
  let misuse pr fmt = Printf.ksprintf (fun s -> raise (misuse_exn pr s)) fmt in
  (* Transfer cores, shared verbatim by both engines: each takes a
     processor and an already-resolved section and owns the exact
     per-event charges and trace emissions. *)
  let send_value_core pr ~arr ~box ~dests =
    if not (Symtab.iown pr.st arr box) then
      misuse pr "value send of unowned section %s" (section_name arr box);
    let payload = Symtab.read_box pr.st arr box in
    let directed = dests () in
    charge_pr pr
      (cost.time_send_init
      +. (float_of_int (Array.length payload) *. cost.time_mem));
    let name = section_name arr box in
    if Trace.enabled tr then
      Trace.emit tr
        (Trace.Send_init
           { time = pr.clock; pid = pr.pid; name; kind = "value" });
    Fabric.post_send fabric ~time:pr.clock ~src:pr.pid ~name ~kind:Board.Value
      ~payload ~directed
  in
  let send_ownership_core pr ~with_value ~arr ~box =
    (match Symtab.section_state pr.st arr box with
    | State.Unowned ->
        misuse pr "ownership send of unowned section %s"
          (section_name arr box)
    | State.Transitional ->
        (* Owner sends block until the section is accessible. *)
        raise (Evalexpr.Blocked_on (arr, box))
    | State.Accessible -> ());
    let payload = if with_value then Symtab.read_box pr.st arr box else [||] in
    let released = Symtab.release pr.st arr box in
    let nsegs = List.length released in
    incr ownership_transfers;
    charge_pr pr
      (cost.time_send_init
      +. (float_of_int nsegs *. cost.time_owner_admin)
      +. (float_of_int (Array.length payload) *. cost.time_mem));
    let kind = if with_value then Board.Owner_value else Board.Owner in
    let name = section_name arr box in
    if Trace.enabled tr then
      Trace.emit tr
        (Trace.Send_init
           {
             time = pr.clock;
             pid = pr.pid;
             name;
             kind = Board.kind_to_string kind;
           });
    Fabric.post_send fabric ~time:pr.clock ~src:pr.pid ~name ~kind ~payload
      ~directed:None
  in
  let recv_ownership_core pr ~with_value ~arr ~box =
    (match Symtab.section_state pr.st arr box with
    | State.Unowned -> ()
    | State.Accessible | State.Transitional ->
        misuse pr
          "ownership receive of section %s some element of which is \
           already owned"
          (section_name arr box));
    Symtab.expect_ownership pr.st arr box;
    let token = fresh_token () in
    let kind = if with_value then Board.Owner_value else Board.Owner in
    Hashtbl.replace pending token
      (pr.pid, { p_kind = kind; p_into = (arr, box) });
    inflight.(pr.pid) <- inflight.(pr.pid) + 1;
    charge_pr pr (cost.time_recv_init +. cost.time_owner_admin);
    let name = section_name arr box in
    if Trace.enabled tr then
      Trace.emit tr
        (Trace.Recv_init
           {
             time = pr.clock;
             pid = pr.pid;
             name;
             kind = Board.kind_to_string kind;
           });
    Transport.post_recv wire ~time:pr.clock ~dst:pr.pid ~name ~kind ~token
  in
  let recv_value_core pr ~into:(into_arr, into_box) ~from:(from_arr, from_box)
      =
    if not (Symtab.iown pr.st into_arr into_box) then
      misuse pr "receive into unowned section %s"
        (section_name into_arr into_box);
    if not (Symtab.accessible pr.st into_arr into_box) then
      (* Blocks until the destination is accessible (Figure 1). *)
      raise (Evalexpr.Blocked_on (into_arr, into_box));
    if Box.count into_box <> Box.count from_box then
      misuse pr "receive shape mismatch: %s <- %s"
        (section_name into_arr into_box)
        (section_name from_arr from_box);
    Symtab.mark_recv_init pr.st into_arr into_box;
    let token = fresh_token () in
    Hashtbl.replace pending token
      (pr.pid, { p_kind = Board.Value; p_into = (into_arr, into_box) });
    inflight.(pr.pid) <- inflight.(pr.pid) + 1;
    charge_pr pr cost.time_recv_init;
    let name = section_name from_arr from_box in
    if Trace.enabled tr then
      Trace.emit tr
        (Trace.Recv_init
           { time = pr.clock; pid = pr.pid; name; kind = "value" });
    Transport.post_recv wire ~time:pr.clock ~dst:pr.pid ~name ~kind:Board.Value
      ~token
  in
  let apply_core pr ~fn (k : Xdp.Kernels.t) pairs =
    List.iter
      (fun (arr, box) ->
        if not (Symtab.iown pr.st arr box) then
          misuse pr "kernel %s applied to unowned section %s" fn
            (section_name arr box))
      pairs;
    let bufs = List.map (fun (arr, b) -> Symtab.read_box pr.st arr b) pairs in
    let flops = k.Xdp.Kernels.flops bufs in
    k.Xdp.Kernels.apply bufs;
    List.iter2
      (fun (arr, b) buf -> Symtab.write_box pr.st arr b buf)
      pairs bufs;
    let total_elems =
      List.fold_left (fun acc (_, b) -> acc + Box.count b) 0 pairs
    in
    charge_pr pr
      ((flops *. cost.time_flop)
      +. (2.0 *. float_of_int total_elems *. cost.time_mem))
  in
  let world_of pr =
    let h = hooks.(pr.pid) in
    {
      Precompile.w_pid1 = pr.pid + 1;
      w_nprocs = nprocs;
      w_st = pr.st;
      w_charge = h.Evalexpr.charge;
      w_iown = h.Evalexpr.iown;
      w_accessible = h.Evalexpr.accessible;
      w_await = h.Evalexpr.await;
      w_mylb = h.Evalexpr.mylb;
      w_myub = h.Evalexpr.myub;
      w_guard_eval = (fun () -> pr.guard_evals <- pr.guard_evals + 1);
      w_guard_hit = (fun () -> pr.guard_hits <- pr.guard_hits + 1);
      w_misuse = (fun s -> misuse_exn pr s);
      w_send_value =
        (fun ~arr ~box ~dests -> send_value_core pr ~arr ~box ~dests);
      w_send_owner =
        (fun ~with_value ~arr ~box ->
          send_ownership_core pr ~with_value ~arr ~box);
      w_recv_owner =
        (fun ~with_value ~arr ~box ->
          recv_ownership_core pr ~with_value ~arr ~box);
      w_recv_value = (fun ~into ~from -> recv_value_core pr ~into ~from);
      w_apply = (fun ~fn k pairs -> apply_core pr ~fn k pairs);
    }
  in
  (* Stage once, share the code across processors; each gets its own
     slot frames and inline caches.  A caller that runs the same
     program many times (the batch service) passes the staged [cprog]
     back in via [?staged] — it must have been compiled from this
     program with the same cost model, which the batch cache
     guarantees by keying on a digest of both. *)
  (match engine with
  | `Interp -> ()
  | `Compiled ->
      let cp =
        match staged with
        | Some cp -> cp
        | None ->
            Precompile.compile ~cost ~kernels:Xdp.Kernels.default ~scalars:[] p
      in
      let codes = Precompile.body cp in
      Array.iter
        (fun pr ->
          pr.mach <- Some (Precompile.machine cp (world_of pr));
          pr.stack <- [ Code { codes; ip = 0 } ])
        procs);
  (* Execute one statement; raises Evalexpr.Blocked_on to request a
     retry once the named section becomes accessible. *)
  let exec_stmt pr s =
    let h = hooks.(pr.pid) in
    let charge = h.Evalexpr.charge in
    match s with
    | Assign (Lvar v, e) ->
        let x =
          try Evalexpr.eval h pr.env e
          with Evalexpr.Unowned_ref n ->
            misuse pr "read of unowned %s outside a compute rule" n
        in
        charge cost.time_mem;
        Hashtbl.replace pr.env v x
    | Assign (Lelem (a, idxs), e) ->
        let idx = List.map (Evalexpr.eval_int h pr.env) idxs in
        if not (Symtab.iown pr.st a (Box.point idx)) then
          misuse pr "write to unowned element %s"
            (section_name a (Box.point idx));
        let x =
          try Value.to_float (Evalexpr.eval h pr.env e)
          with Evalexpr.Unowned_ref n ->
            misuse pr "read of unowned %s outside a compute rule" n
        in
        charge cost.time_mem;
        Symtab.set pr.st a idx x
    | Guard (g, body) -> (
        pr.guard_evals <- pr.guard_evals + 1;
        match Evalexpr.eval_guard h pr.env g with
        | true ->
            pr.guard_hits <- pr.guard_hits + 1;
            pr.stack <- Stmts body :: pr.stack
        | false -> ())
    | For { var; lo; hi; step; body; _ } ->
        let lo = Evalexpr.eval_int h pr.env lo in
        let hi = Evalexpr.eval_int h pr.env hi in
        let step = Evalexpr.eval_int h pr.env step in
        if step <= 0 then misuse pr "non-positive loop step";
        charge cost.time_int_op;
        if lo <= hi then
          pr.stack <- Loop { var; cur = lo; hi; step; body } :: pr.stack
    | If (c, a, b) ->
        let v =
          try Value.to_bool (Evalexpr.eval h pr.env c)
          with Evalexpr.Unowned_ref n ->
            misuse pr "read of unowned %s in if-condition" n
        in
        pr.stack <- Stmts (if v then a else b) :: pr.stack
    | Send_value (s, dest) ->
        let box = Evalexpr.resolve_section h pr.env s in
        let dests =
          match dest with
          | Unspecified -> fun () -> None
          | Directed es ->
              fun () ->
                Some
                  (List.map
                     (fun e ->
                       let pid1 = Evalexpr.eval_int h pr.env e in
                       if pid1 < 1 || pid1 > nprocs then
                         misuse pr "send directed to invalid processor %d"
                           pid1;
                       pid1 - 1)
                     es)
        in
        send_value_core pr ~arr:s.arr ~box ~dests
    | Send_owner s ->
        let box = Evalexpr.resolve_section h pr.env s in
        send_ownership_core pr ~with_value:false ~arr:s.arr ~box
    | Send_owner_value s ->
        let box = Evalexpr.resolve_section h pr.env s in
        send_ownership_core pr ~with_value:true ~arr:s.arr ~box
    | Recv_value { into; from } ->
        let into_box = Evalexpr.resolve_section h pr.env into in
        let from_box = Evalexpr.resolve_section h pr.env from in
        recv_value_core pr ~into:(into.arr, into_box)
          ~from:(from.arr, from_box)
    | Recv_owner s ->
        let box = Evalexpr.resolve_section h pr.env s in
        recv_ownership_core pr ~with_value:false ~arr:s.arr ~box
    | Recv_owner_value s ->
        let box = Evalexpr.resolve_section h pr.env s in
        recv_ownership_core pr ~with_value:true ~arr:s.arr ~box
    | Apply { fn; args } -> (
        match Xdp.Kernels.find Xdp.Kernels.default fn with
        | None -> misuse pr "unknown kernel %s" fn
        | Some k ->
            let boxes = List.map (Evalexpr.resolve_section h pr.env) args in
            let pairs =
              List.map2 (fun (s : section) b -> (s.arr, b)) args boxes
            in
            apply_core pr ~fn k pairs)
  in
  let block pr name box =
    pr.status <- `Blocked { on_name = name; on_box = box };
    if Trace.enabled tr then
      Trace.emit tr
        (Trace.Blocked
           { time = pr.clock; pid = pr.pid; on = section_name name box })
  in
  let count_step () =
    incr total_steps;
    if !total_steps > max_steps then
      raise
        (Xdp_misuse (Printf.sprintf "step budget exceeded (%d)" max_steps))
  in
  (* One scheduler step of processor [pr]: pop and run the next
     statement, handling loops and blocking.  The compiled frames
     mirror the interpreted ones micro-step for micro-step: one
     statement per turn, block-exit pops and loop advances are their
     own turns, a blocked statement is retried from scratch. *)
  let step_proc pr =
    match pr.stack with
    | [] -> pr.status <- `Done
    | Stmts [] :: rest -> pr.stack <- rest
    | Stmts (s :: rest) :: frames -> (
        pr.stack <- Stmts rest :: frames;
        count_step ();
        try exec_stmt pr s
        with Evalexpr.Blocked_on (name, box) ->
          (* Undo the pop; retry the statement when accessible. *)
          pr.stack <- Stmts (s :: rest) :: frames;
          block pr name box)
    | Loop l :: rest ->
        if l.cur > l.hi then pr.stack <- rest
        else begin
          Hashtbl.replace pr.env l.var (Value.VInt l.cur);
          l.cur <- l.cur + l.step;
          charge_pr pr cost.time_int_op;
          pr.stack <- Stmts l.body :: Loop l :: rest
        end
    | Code c :: frames -> (
        if c.ip >= Array.length c.codes then pr.stack <- frames
        else
          match c.codes.(c.ip) with
          | Precompile.U_fuse f when inflight.(pr.pid) = 0 ->
              (* the whole superinstruction runs in this turn; the
                 fused runner charges exactly what the statements
                 would and reports how many it executed *)
              c.ip <- c.ip + 1;
              let k = f.Precompile.fu_fast (Option.get pr.mach) in
              total_steps := !total_steps + k;
              incr fused_turns;
              fused_stmts := !fused_stmts + k;
              if !total_steps > max_steps then
                raise
                  (Xdp_misuse
                     (Printf.sprintf "step budget exceeded (%d)" max_steps))
          | Precompile.U_fuse f ->
              (* a receive is in flight: its delivery must be able to
                 land between statements, so run the region one turn
                 at a time (an uncounted, uncharged frame push) *)
              c.ip <- c.ip + 1;
              pr.stack <- Code { codes = f.Precompile.fu_slow; ip = 0 } :: pr.stack
          | Precompile.U_guard g ->
              (* evaluate this guard and, while guards keep failing,
                 the ones that follow it; each is counted and charged
                 in program order.  A false guard has no effect beyond
                 its clock charge, so only a delivery landing mid-run
                 could tell the difference — and it can only reach a
                 guard that reads the symbol table. *)
              let m = Option.get pr.mach in
              let codes = c.codes in
              let rec scan (g : Precompile.guard) k =
                c.ip <- c.ip + 1;
                count_step ();
                if g.g_test m then begin
                  pr.stack <- Code { codes = g.g_body; ip = 0 } :: pr.stack;
                  k
                end
                else if c.ip >= Array.length codes then k
                else
                  match Array.unsafe_get codes c.ip with
                  | Precompile.U_guard g'
                    when g'.g_pure || inflight.(pr.pid) = 0 ->
                      scan g' (k + 1)
                  | _ -> k
              in
              let k = scan g 1 in
              if k > 1 then begin
                incr fused_turns;
                fused_stmts := !fused_stmts + k
              end
          | Precompile.U_stmt code -> (
              c.ip <- c.ip + 1;
              count_step ();
              let m = Option.get pr.mach in
              match code m with
              | Precompile.A_next -> ()
              | Precompile.A_block codes ->
                  pr.stack <- Code { codes; ip = 0 } :: pr.stack
              | Precompile.A_loop cl ->
                  pr.stack <-
                    Cloop { cl; ccur = cl.Precompile.l_lo } :: pr.stack
              | exception Evalexpr.Blocked_on (name, box) ->
                  c.ip <- c.ip - 1;
                  block pr name box))
    | Cloop c :: rest ->
        let cl = c.cl in
        if c.ccur > cl.Precompile.l_hi then pr.stack <- rest
        else begin
          cl.Precompile.l_set (Option.get pr.mach) c.ccur;
          c.ccur <- c.ccur + cl.Precompile.l_step;
          charge_pr pr cost.time_int_op;
          pr.stack <- Code { codes = cl.Precompile.l_body; ip = 0 } :: pr.stack
        end
  in
  (* The ready processors, as a binary min-heap of pids ordered by
     (clock, pid): the root is the processor the scheduler steps next,
     and pid breaks clock ties exactly as an ascending-pid scan with a
     strict [<] would.  Only the stepped processor (always the root)
     and woken ones change key, so each turn costs O(log P), and a
     stepped processor that stays the earliest costs one or two
     compares.  (Popping and re-pushing it through {!Heap} instead made
     the naive P=64 all-to-all 25-35% slower end to end.) *)
  let ready = Array.init nprocs Fun.id in
  let nready = ref nprocs in
  let before a b =
    let ca = (Array.unsafe_get procs a).clock
    and cb = (Array.unsafe_get procs b).clock in
    ca < cb || (ca = cb && a < b)
  in
  let rec sift_up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      let x = ready.(i) and y = ready.(parent) in
      if before x y then begin
        ready.(i) <- y;
        ready.(parent) <- x;
        sift_up parent
      end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < !nready then begin
      let r = l + 1 in
      let c = if r < !nready && before ready.(r) ready.(l) then r else l in
      let x = ready.(i) and y = ready.(c) in
      if before y x then begin
        ready.(i) <- y;
        ready.(c) <- x;
        sift_down c
      end
    end
  in
  let ready_push pid =
    ready.(!nready) <- pid;
    incr nready;
    sift_up (!nready - 1)
  in
  (* Step the root processor [pid], then re-key it (a root whose key
     changed can only sink) or drop it if it blocked or finished. *)
  let step_ready pid =
    let pr = procs.(pid) in
    step_proc pr;
    match pr.status with
    | `Ready -> sift_down 0
    | `Blocked _ | `Done ->
        decr nready;
        ready.(0) <- ready.(!nready);
        sift_down 0
  in
  let apply_delivery (d : Board.delivery) =
    let pr = procs.(d.dst) in
    let poster, pend =
      match Hashtbl.find_opt pending d.token with
      | Some x -> x
      | None ->
          raise
            (Xdp_misuse
               (Printf.sprintf "delivery with unknown token for %s" d.name))
    in
    Hashtbl.remove pending d.token;
    inflight.(poster) <- inflight.(poster) - 1;
    let arr, box = pend.p_into in
    (match pend.p_kind with
    | Board.Value ->
        Symtab.write_box pr.st arr box d.payload;
        Symtab.mark_recv_complete pr.st arr box
    | Board.Owner -> Symtab.accept_ownership pr.st arr box None
    | Board.Owner_value ->
        Symtab.accept_ownership pr.st arr box (Some d.payload));
    if Trace.enabled tr then
      Trace.emit tr
        (Trace.Delivered
           {
             time = d.arrival;
             src = d.src;
             dst = d.dst;
             name = d.name;
             kind = Board.kind_to_string d.kind;
             bytes = d.bytes;
           });
    (* Wake any processor whose blocking condition this satisfies. *)
    Array.iter
      (fun pr ->
        match pr.status with
        | `Blocked b
          when Symtab.accessible pr.st b.on_name b.on_box ->
            pr.status <- `Ready;
            pr.clock <- Float.max pr.clock d.arrival;
            ready_push pr.pid;
            if Trace.enabled tr then
              Trace.emit tr (Trace.Unblocked { time = pr.clock; pid = pr.pid })
        | _ -> ())
      procs
  in
  (* Main discrete-event loop. *)
  let rec loop () =
    let bi = if !nready > 0 then Array.unsafe_get ready 0 else -1 in
    if not (Transport.has_delivery wire) then
      if bi >= 0 then (
        step_ready bi;
        loop ())
      else finish ()
    else
      let d =
        match Transport.peek_delivery wire with
        | Some d -> d
        | None -> assert false
      in
      if bi < 0 || d.arrival <= procs.(bi).clock then (
        ignore (Transport.pop_delivery wire);
        apply_delivery d;
        loop ())
      else (
        step_ready bi;
        loop ())
  and finish () =
        (* The waiting (pid, section) set, reported by every stuck-run
           diagnostic so the blocked rendezvous is always named. *)
        let waiting =
          Array.to_list procs
          |> List.filter_map (fun pr ->
                 match pr.status with
                 | `Blocked b ->
                     Some
                       (Printf.sprintf "P%d waits on %s" (pr.pid + 1)
                          (section_name b.on_name b.on_box))
                 | _ -> None)
        in
        let failed = Transport.failures wire in
        if failed <> [] then
          (* Not a compiler bug: the wire ate a matched message and the
             transport ran out of retries.  Name the dead links. *)
          raise
            (Transport.Link_failed
               (Printf.sprintf
                  "%s: blocked on messages dropped past max retries:\n\
                   %s\nwaiting:\n%s"
                  p.prog_name
                  (String.concat "\n"
                     (List.map
                        (fun f -> Format.asprintf "  %a" Transport.pp_failure f)
                        failed))
                  (String.concat "\n" waiting)))
        else if waiting <> [] then
          raise
            (Deadlock
               (Printf.sprintf
                  "%s: all processors blocked or done with nothing in \
                   flight (no messages lost — the program is missing a \
                   matching send or receive):\n%s\npending sends: %d, \
                   pending recvs: %d"
                  p.prog_name
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
  in
  loop ();
  (* A lost message with no blocked waiter would otherwise end the run
     with silently-wrong tensors; surface it. *)
  (match Transport.failures wire with
  | [] -> ()
  | failed ->
      raise
        (Transport.Link_failed
           (Printf.sprintf "%s: run completed but messages were lost:\n%s"
              p.prog_name
              (String.concat "\n"
                 (List.map
                    (fun f -> Format.asprintf "  %a" Transport.pp_failure f)
                    failed)))));
  (* Gather distributed arrays into global tensors. *)
  let arrays =
    List.map
      (fun d ->
        let shape = Xdp_dist.Layout.shape d.layout in
        let t = Tensor.create shape in
        (* universal arrays may diverge per processor; gather P1's copy
           by convention *)
        let sources = if d.universal then [| procs.(0) |] else procs in
        Array.iter
          (fun pr ->
            List.iter
              (fun (s : Symtab.seg) ->
                match (s.status, s.data) with
                | State.Unowned, _ | _, None -> ()
                | _, Some data ->
                    (* segment storage is the row-major packing of its
                       box: unpack with the allocation-free blit *)
                    Tensor.blit t s.seg_box data)
              (Symtab.segments pr.st d.arr_name))
          sources;
        (d.arr_name, t))
      p.decls
  in
  let makespan =
    Array.fold_left (fun acc pr -> Float.max acc pr.clock) 0.0 procs
  in
  let stats =
    {
      Trace.makespan;
      messages = Board.messages_matched board;
      bytes = Board.bytes_matched board;
      ownership_transfers = !ownership_transfers;
      guard_evals =
        Array.fold_left (fun acc pr -> acc + pr.guard_evals) 0 procs;
      guard_hits =
        Array.fold_left (fun acc pr -> acc + pr.guard_hits) 0 procs;
      busy = Array.map (fun pr -> pr.busy) procs;
      finish = Array.map (fun pr -> pr.clock) procs;
      peak_storage = Array.map (fun pr -> Symtab.peak_elements pr.st) procs;
      statements = !total_steps;
      unmatched_sends = List.length (Board.pending_sends board);
      unmatched_recvs = List.length (Board.pending_recvs board);
      retransmits = Transport.retransmits wire;
      acks = Transport.acks wire;
      dup_suppressed = Transport.dup_suppressed wire;
      packets_dropped = Transport.packets_dropped wire;
      net_overhead_bytes = Transport.overhead_bytes wire;
      link_failures = List.length (Transport.failures wire);
      nic_packets = Fabric.packets fabric;
      nic_filtered = Fabric.filtered fabric;
      nic_aggregated = Fabric.absorbed fabric;
      nic_emitted = Fabric.emitted fabric;
      nic_fanout_copies = Fabric.fanout_copies fabric;
      nic_msgs_saved = Fabric.msgs_saved fabric;
      nic_bytes = Fabric.fabric_bytes fabric;
      peak_inflight_bytes =
        (* pad the board's highest-pid-seen array to the machine size *)
        (let raw = Board.peak_inflight board in
         Array.init nprocs (fun pid ->
             if pid < Array.length raw then raw.(pid) else 0));
      redist_stages;
    }
  in
  {
    arrays;
    stats;
    trace = tr;
    symtabs = Array.map (fun pr -> pr.st) procs;
    fusion = { fused_turns = !fused_turns; fused_statements = !fused_stmts };
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
