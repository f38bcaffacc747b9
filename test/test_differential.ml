(* Differential testing: random sequential programs are lowered and
   optimized, executed on the simulated SPMD machine at every pipeline
   stage, and compared bit-for-bit against the sequential reference
   interpreter.  This is the broadest semantics-preservation net in the
   suite: it covers lowering, local-communication elimination,
   localization, guard hoisting and binding jointly over random
   distributions, shifts, scalars and processor counts. *)

open Xdp.Ir
open Xdp.Build
module Exec = Xdp_runtime.Exec
module G = QCheck.Gen

type cfg = {
  nprocs : int;
  n : int;
  dist_x : Xdp_dist.Dist.t;
  dist_y : Xdp_dist.Dist.t;
  stmts : spec list;
}

and spec =
  | Map of string * string * int * binop * float
      (** dst[i] = src[i+shift] op c over the legal range *)
  | Accum of string * binop * float  (** dst[i] = dst[i] op c *)
  | Scalar_mix of string * int
      (** s = src[k]; dst[i] = dst[i] + s *)

let arrays = [ "X"; "Y" ]

let gen_spec =
  G.(
    oneof
      [
        map2
          (fun (dst, src) (shift, (op, c)) -> Map (dst, src, shift, op, c))
          (pair (oneofl arrays) (oneofl arrays))
          (pair (int_range (-1) 1)
             (pair (oneofl [ Add; Sub; Mul ]) (float_range 0.5 2.5)));
        map2 (fun dst (op, c) -> Accum (dst, op, c)) (oneofl arrays)
          (pair (oneofl [ Add; Mul ]) (float_range 0.5 2.5));
        map2 (fun src k -> Scalar_mix (src, k)) (oneofl arrays)
          (int_range 1 4);
      ])

let gen_cfg =
  G.(
    let* nprocs = int_range 1 4 in
    let* mult = int_range 1 3 in
    let* dist_x = oneofl Xdp_dist.Dist.[ Block; Cyclic ] in
    let* dist_y = oneofl Xdp_dist.Dist.[ Block; Cyclic ] in
    let* stmts = list_size (int_range 1 3) gen_spec in
    return { nprocs; n = 4 * nprocs * mult; dist_x; dist_y; stmts })

let other dst = if dst = "X" then "Y" else "X"

let build_program cfg =
  let grid = Xdp_dist.Grid.linear cfg.nprocs in
  let decls =
    [
      decl ~name:"X" ~shape:[ cfg.n ] ~dist:[ cfg.dist_x ] ~grid ();
      decl ~name:"Y" ~shape:[ cfg.n ] ~dist:[ cfg.dist_y ] ~grid ();
    ]
  in
  let iv = var "i" in
  let fresh = ref 0 in
  let body =
    List.concat_map
      (fun spec ->
        match spec with
        | Map (dst, src, shift, op, c) ->
            let src = if src = dst && shift = 0 then other dst else src in
            let lo = max 1 (1 - shift) and hi = min cfg.n (cfg.n - shift) in
            [
              loop "i" (i lo) (i hi)
                [
                  set dst [ iv ]
                    (Bin (op, elem src [ iv +: i shift ], f c));
                ];
            ]
        | Accum (dst, op, c) ->
            [
              loop "i" (i 1) (i cfg.n)
                [ set dst [ iv ] (Bin (op, elem dst [ iv ], f c)) ];
            ]
        | Scalar_mix (src, k) ->
            incr fresh;
            let s = Printf.sprintf "s%d" !fresh in
            let dst = other src in
            [
              setv s (elem src [ i k ]);
              loop "i" (i 1) (i cfg.n)
                [ set dst [ iv ] (elem dst [ iv ] +: var s) ];
            ])
      cfg.stmts
  in
  program ~name:"differential" ~decls body

let init name idx =
  match (name, idx) with
  | "X", [ i ] -> float_of_int i
  | "Y", [ i ] -> 0.5 +. float_of_int (3 * i)
  | _ -> 0.0

let print_cfg cfg =
  Printf.sprintf "P=%d n=%d X:%s Y:%s\n%s" cfg.nprocs cfg.n
    (Xdp_dist.Dist.to_string cfg.dist_x)
    (Xdp_dist.Dist.to_string cfg.dist_y)
    (Xdp.Pp.program_to_string (build_program cfg))

let stages =
  [
    ("lowered", fun p ~nprocs -> Xdp.Lower.run ~nprocs p);
    ("elim", fun p ~nprocs -> Xdp.Elim_comm.run (Xdp.Lower.run ~nprocs p));
    ( "localized",
      fun p ~nprocs ->
        Xdp.Localize.run (Xdp.Elim_comm.run (Xdp.Lower.run ~nprocs p)) );
    ( "full",
      fun p ~nprocs ->
        Xdp.Bind.run
          (Xdp.Hoist_guard.run
             (Xdp.Localize.run
                (Xdp.Elim_comm.run (Xdp.Lower.run ~nprocs p)))) );
    ("compile-driver", fun p ~nprocs -> (Xdp.Compile.optimize ~nprocs p).compiled);
  ]

let check_cfg cfg =
  let p = build_program cfg in
  let reference = Xdp_runtime.Seq.run ~init p in
  List.for_all
    (fun (label, compile) ->
      let compiled = compile p ~nprocs:cfg.nprocs in
      let r = Exec.run ~init ~nprocs:cfg.nprocs compiled in
      List.for_all
        (fun arr ->
          let ok =
            Xdp_util.Tensor.equal ~eps:1e-9
              (Exec.array r arr)
              (Xdp_runtime.Seq.array reference arr)
          in
          if not ok then
            QCheck.Test.fail_reportf "stage %s: array %s differs\n%s" label
              arr (print_cfg cfg);
          ok)
        arrays)
    stages

let prop_differential =
  QCheck.Test.make ~name:"all pipeline stages match the reference" ~count:60
    (QCheck.make ~print:print_cfg gen_cfg)
    check_cfg

(* Same property under an unreliable network: the fully optimized
   program, run through the reliable transport with a fault plan
   derived from the configuration, must still match the sequential
   reference bit for bit.  Plans stay in the eventual-delivery class
   (small deliver_after), so termination is guaranteed. *)
let fault_of_cfg cfg =
  let g = Xdp_util.Prng.stream 0x0DD5 [ Hashtbl.hash cfg ] in
  Xdp_net.Faultplan.make
    ~seed:(Xdp_util.Prng.int g 1_000_000)
    ~drop:(Xdp_util.Prng.float_in g 0.0 0.4)
    ~dup:(Xdp_util.Prng.float_in g 0.0 0.25)
    ~jitter:(Xdp_util.Prng.float_in g 0.0 0.5)
    ~deliver_after:(Xdp_util.Prng.int_in g 0 4)
    ()

let check_cfg_faulty cfg =
  let p = build_program cfg in
  let reference = Xdp_runtime.Seq.run ~init p in
  let compiled = (Xdp.Compile.optimize ~nprocs:cfg.nprocs p).compiled in
  let fault = fault_of_cfg cfg in
  let r = Exec.run ~init ~nprocs:cfg.nprocs ~fault compiled in
  List.for_all
    (fun arr ->
      let ok =
        Xdp_util.Tensor.equal ~eps:1e-9
          (Exec.array r arr)
          (Xdp_runtime.Seq.array reference arr)
      in
      if not ok then
        QCheck.Test.fail_reportf "faulty run (%s): array %s differs\n%s"
          (Xdp_net.Faultplan.describe fault)
          arr (print_cfg cfg);
      ok)
    arrays

let prop_differential_faulty =
  QCheck.Test.make
    ~name:"compiled stage matches the reference under fault plans" ~count:40
    (QCheck.make ~print:print_cfg gen_cfg)
    check_cfg_faulty

(* Engine parity: the staged engine (Precompile closures) must be
   observably identical to the tree-walking interpreter — same arrays
   bit for bit, the same stats record field for field (guard_evals,
   statements, per-processor busy/finish clocks, ...) and the same
   delivery trace, across cost models and including faulty runs.  This
   is the headline property of the staged engine. *)

let digest_deliveries (tr : Xdp_sim.Trace.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Xdp_sim.Trace.event) ->
      match e with
      | Xdp_sim.Trace.Delivered { time; src; dst; name; kind; bytes } ->
          Buffer.add_string buf
            (Printf.sprintf "%.6f|%d|%d|%s|%s|%d\n" time src dst name kind
               bytes)
      | _ -> ())
    (Xdp_sim.Trace.events tr);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let cost_models =
  [
    ("message-passing", Xdp_sim.Costmodel.message_passing);
    ("shared-address", Xdp_sim.Costmodel.shared_address);
    ("idealized", Xdp_sim.Costmodel.idealized);
  ]

let check_engine_pair cfg ~label ?fault ~cost ~cost_name () =
  let p = build_program cfg in
  let compiled = (Xdp.Compile.optimize ~nprocs:cfg.nprocs p).compiled in
  let go engine =
    Exec.run ~engine ~cost ?fault ~init ~nprocs:cfg.nprocs ~trace:true
      compiled
  in
  let ri = go `Interp and rc = go `Compiled in
  let fail msg =
    QCheck.Test.fail_reportf "engines differ (%s, %s): %s\n%s" label cost_name
      msg (print_cfg cfg)
  in
  List.iter
    (fun arr ->
      if
        not
          (Xdp_util.Tensor.equal ~eps:0.0 (Exec.array ri arr)
             (Exec.array rc arr))
      then fail (Printf.sprintf "array %s" arr))
    arrays;
  (* the whole stats record: counts exactly, clocks bit for bit on
     fault-free runs (dyadic per-op costs make batched charging exact);
     fault jitter introduces non-dyadic clock bases, so there compare
     makespan to a tolerance and the integer fields exactly *)
  (match fault with
  | None -> if ri.stats <> rc.stats then fail "stats records"
  | Some _ ->
      let s1 = ri.stats and s2 = rc.stats in
      if
        abs_float (s1.Xdp_sim.Trace.makespan -. s2.Xdp_sim.Trace.makespan)
        > 1e-6 *. Float.max 1.0 s1.Xdp_sim.Trace.makespan
      then
        fail
          (Printf.sprintf "makespan %f vs %f" s1.Xdp_sim.Trace.makespan
             s2.Xdp_sim.Trace.makespan);
      if
        { s1 with Xdp_sim.Trace.makespan = 0.0; busy = [||]; finish = [||] }
        <> { s2 with Xdp_sim.Trace.makespan = 0.0; busy = [||]; finish = [||] }
      then fail "stats counters");
  if digest_deliveries ri.trace <> digest_deliveries rc.trace then
    fail "delivery trace digests";
  true

let check_cfg_engines cfg =
  List.for_all
    (fun (cost_name, cost) ->
      check_engine_pair cfg ~label:"fault-free" ~cost ~cost_name ())
    cost_models
  && check_engine_pair cfg ~label:"faulty"
       ~fault:(fault_of_cfg cfg)
       ~cost:Xdp_sim.Costmodel.message_passing ~cost_name:"message-passing"
       ()

let prop_engines =
  QCheck.Test.make
    ~name:"staged engine is bit-identical to the interpreter" ~count:40
    (QCheck.make ~print:print_cfg gen_cfg)
    check_cfg_engines

(* Fatal fault plans: a crash-stopped processor or a permanently dead
   link pushes some transfer past the transport's retry budget, so the
   run aborts with Link_failed (or deadlocks, or — when the program
   never touches the dead path — completes).  The staged engine must
   abort *identically* to the interpreter: same exception constructor
   with the same diagnostic (which names the pending links and
   sections, i.e. the same statement was in flight when the run died).
   This pins the fused runner's abort points: a superinstruction that
   crossed an abortable boundary would either finish statements the
   interpreter never reached or die naming different pending state.
   Plans carry no jitter, so completed runs must match bit for bit,
   stats record included. *)

let fatal_fault_of_cfg cfg ~makespan =
  let g = Xdp_util.Prng.stream 0x0DD5 [ Hashtbl.hash cfg; 0xFA7A ] in
  if Xdp_util.Prng.bool g || cfg.nprocs = 1 then
    (* crash-stop: one NIC goes dark mid-run *)
    let pid = Xdp_util.Prng.int_in g 0 (cfg.nprocs - 1) in
    let t = Xdp_util.Prng.float_in g 0.1 0.9 *. makespan in
    Xdp_net.Faultplan.make ~crashes:[ (pid, t) ] ()
  else
    (* one link drops every packet forever, past eventual delivery *)
    let src = Xdp_util.Prng.int_in g 0 (cfg.nprocs - 1) in
    let dst = (src + Xdp_util.Prng.int_in g 1 (cfg.nprocs - 1)) mod cfg.nprocs in
    Xdp_net.Faultplan.make
      ~links:
        [ ((src, dst), { Xdp_net.Faultplan.reliable with drop = 1.0 }) ]
      ~deliver_after:1_000_000 ()

let run_outcome engine p cfg fault =
  match Exec.run ~engine ~fault ~init ~nprocs:cfg.nprocs p with
  | r -> `Done (List.map (fun a -> Exec.array r a) arrays, r.Exec.stats)
  | exception Xdp_net.Transport.Link_failed m -> `Link_failed m
  | exception Exec.Deadlock m -> `Deadlock m

let check_cfg_fatal cfg =
  let p = build_program cfg in
  let compiled = (Xdp.Compile.optimize ~nprocs:cfg.nprocs p).compiled in
  let clean = Exec.run ~init ~nprocs:cfg.nprocs compiled in
  let fault =
    fatal_fault_of_cfg cfg ~makespan:clean.Exec.stats.Xdp_sim.Trace.makespan
  in
  let fail msg =
    QCheck.Test.fail_reportf "fatal-fault outcomes differ (%s): %s\n%s"
      (Xdp_net.Faultplan.describe fault)
      msg (print_cfg cfg)
  in
  (match
     ( run_outcome `Interp compiled cfg fault,
       run_outcome `Compiled compiled cfg fault )
   with
  | `Link_failed a, `Link_failed b ->
      if a <> b then fail (Printf.sprintf "Link_failed %S vs %S" a b)
  | `Deadlock a, `Deadlock b ->
      if a <> b then fail (Printf.sprintf "Deadlock %S vs %S" a b)
  | `Done (ta, sa), `Done (tb, sb) ->
      if not (List.for_all2 (Xdp_util.Tensor.equal ~eps:0.0) ta tb) then
        fail "completed with different tensors";
      if sa <> sb then fail "completed with different stats records"
  | a, b ->
      let label = function
        | `Done _ -> "completed"
        | `Link_failed m -> Printf.sprintf "Link_failed %S" m
        | `Deadlock m -> Printf.sprintf "Deadlock %S" m
      in
      fail (Printf.sprintf "%s vs %s" (label a) (label b)));
  true

let prop_fatal_faults =
  QCheck.Test.make
    ~name:"engines abort identically under crash-stop and dead links"
    ~count:40
    (QCheck.make ~print:print_cfg gen_cfg)
    check_cfg_fatal

(* ---- redistribution planner (DESIGN.md §10): the collective
   lowering must be observationally pure performance.  For random
   machine sizes, slab depths and budgets, the planned redistflow
   all-to-all must leave the array bit-identical to the naive lowering
   and to the analytic reference — on both engines, across cost
   models, and under eventual-delivery fault plans — and whenever the
   planner reports a feasible in-budget schedule, the *measured* peak
   in-flight bytes must actually stay within that budget. *)

module Redistflow = Xdp_apps.Redistflow
module Plan_redist = Xdp.Plan_redist
module Collective = Xdp_dist.Collective

type rcfg = { r_nprocs : int; r_n : int; r_m : int; r_div : int }

let print_rcfg c =
  Printf.sprintf "redistflow P=%d n=%d m=%d budget_div=%d" c.r_nprocs c.r_n
    c.r_m c.r_div

let gen_rcfg =
  G.(
    let* p = int_range 2 8 in
    (* powers of two exercise the Exchange shape; the rest fall back
       to Ring / Gather_scatter *)
    let* mult = int_range 1 3 in
    let* m = int_range 1 2 in
    let* div = oneofl [ 0; 2; 4 ] in
    return { r_nprocs = p; r_n = p * mult; r_m = m; r_div = div })

let rcfg_budget c =
  if c.r_div = 0 then 0
  else
    let moves =
      Xdp_dist.Redistribution.plan
        ~src:(Redistflow.layout_before ~n:c.r_n ~m:c.r_m ~nprocs:c.r_nprocs)
        ~dst:(Redistflow.layout_after ~n:c.r_n ~m:c.r_m ~nprocs:c.r_nprocs)
    in
    max 1
      (Collective.naive_peak Xdp_sim.Costmodel.message_passing
         ~nprocs:c.r_nprocs moves
      / c.r_div)

let check_rcfg c =
  let budget = rcfg_budget c in
  let reference = Redistflow.reference ~n:c.r_n ~m:c.r_m () in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> QCheck.Test.fail_reportf "%s: %s" (print_rcfg c) msg)
      fmt
  in
  let build strategy =
    Redistflow.build_info ~n:c.r_n ~nprocs:c.r_nprocs ~m:c.r_m ~strategy ()
  in
  let naive_prog, _ = build `Naive in
  let planned_prog, info =
    build (`Collectives { Plan_redist.peak_budget = budget })
  in
  let info = Option.get info in
  let check_identical label (r : Exec.result) =
    if
      not
        (Xdp_util.Tensor.equal ~eps:0.0 (Exec.array r "A") reference)
    then fail "%s: tensor differs from reference" label
  in
  (* both engines, two cost models, naive and planned *)
  List.iter
    (fun (engine, elabel) ->
      List.iter
        (fun (cost, clabel) ->
          check_identical
            (Printf.sprintf "naive %s %s" elabel clabel)
            (Exec.run ~engine ~cost ~init:Redistflow.init ~nprocs:c.r_nprocs
               naive_prog);
          let r =
            Exec.run ~engine ~cost ~init:Redistflow.init
              ~redist_stages:info.Plan_redist.stages ~nprocs:c.r_nprocs
              planned_prog
          in
          check_identical (Printf.sprintf "planned %s %s" elabel clabel) r;
          (* the budget invariant is judged under the cost model the
             planner costs plans on *)
          if
            clabel = "mp" && info.Plan_redist.feasible && budget > 0
            && Xdp_sim.Trace.max_peak_inflight r.Exec.stats > budget
          then
            fail "planned %s: measured peak %dB exceeds budget %dB" elabel
              (Xdp_sim.Trace.max_peak_inflight r.Exec.stats)
              budget;
          if r.Exec.stats.Xdp_sim.Trace.redist_stages <> info.Plan_redist.stages
          then fail "planned %s: stats lost the stage count" elabel)
        [
          (Xdp_sim.Costmodel.message_passing, "mp");
          (Xdp_sim.Costmodel.idealized, "ideal");
        ])
    [ (`Interp, "interp"); (`Compiled, "compiled") ];
  (* and under an eventual-delivery fault plan *)
  let fault =
    let g = Xdp_util.Prng.stream 0x2ED1 [ c.r_nprocs; c.r_n; c.r_m; c.r_div ] in
    Xdp_net.Faultplan.make
      ~seed:(Xdp_util.Prng.int g 1_000_000)
      ~drop:(Xdp_util.Prng.float_in g 0.0 0.3)
      ~dup:(Xdp_util.Prng.float_in g 0.0 0.2)
      ~jitter:(Xdp_util.Prng.float_in g 0.0 0.4)
      ~deliver_after:(Xdp_util.Prng.int_in g 0 3)
      ()
  in
  check_identical "planned faulty"
    (Exec.run ~fault ~init:Redistflow.init
       ~redist_stages:info.Plan_redist.stages ~nprocs:c.r_nprocs planned_prog);
  true

let prop_redist_planner =
  QCheck.Test.make
    ~name:"planned redistribution is bit-identical and within budget"
    ~count:25
    (QCheck.make ~print:print_rcfg gen_rcfg)
    check_rcfg

(* ---- guard scans (DESIGN.md §4d): with fusion on, the compiled
   engine evaluates a run of false owner-computes guards in one
   scheduler turn.  Generated programs here are rounds of guarded
   transfers — ownership moves of single-element segments of A and
   value copies B -> T — mixing pure guards ([mypid] literals,
   [nprocs] arithmetic, variables) with table-reading ones ([iown],
   [accessible], element reads).  Phased rounds post every receive
   before the next round's sends, so runs start while receives are in
   flight; probes read T while its receive may still be pending, so
   their outcome depends on whether a delivery landed mid-run.  Sender
   guards may skip a send ([accessible] on a section still in
   flight), so some programs deadlock or misuse; those must fail with
   the same diagnostic everywhere.  The compiled engine and the
   interpreter must agree on arrays, the stats record, the full trace
   and any diagnostic text, with and without a fault plan
   (drop/dup only: jitter-free plans keep clocks bit-exact). *)

type sguard = S_iown | S_accessible | S_pid
type rguard = R_lit | R_nprocs | R_var | R_table

type move =
  | Own of { j : int; src : int; dst : int; sg : sguard; rg : rguard }
      (** ownership of A[j] moves from [src] to [dst] (0-based pids) *)
  | Copy of { src : int; dst : int; sg : sguard; rg : rguard }
      (** the value of B[src+1] goes into T[dst+1] *)

type item =
  | Round of { phased : bool; moves : move list }
  | Probe of { d : int; by_elem : bool }
  | Pad of int  (** that many pure guards that never hold *)

type scfg = {
  s_nprocs : int;
  s_items : item list;
  s_fault : bool;
  s_cost : int;  (** index into [scan_costs] *)
}

(* Under message passing a delivery takes as long as hundreds of guard
   evaluations, so a mid-run delivery needs a cheap network too: the
   last model makes latency comparable to a handful of guards. *)
let scan_costs =
  let mp = Xdp_sim.Costmodel.message_passing in
  [|
    mp;
    Xdp_sim.Costmodel.shared_address;
    {
      mp with
      name = "fast-network";
      alpha = 16.0;
      time_send_init = 8.0;
      time_recv_init = 8.0;
      time_owner_admin = 4.0;
    };
  |]

let gen_scfg =
  G.(
    let* p = int_range 2 4 in
    let* nitems = int_range 1 6 in
    let* s_fault = bool in
    let* s_cost = int_range 0 (Array.length scan_costs - 1) in
    let owner = Array.init (2 * p) (fun j -> j / 2) in
    let sguard = frequencyl [ (3, S_iown); (1, S_accessible); (2, S_pid) ] in
    let rguard = oneofl [ R_lit; R_nprocs; R_var; R_table ] in
    let other src = map (fun k -> (src + 1 + k) mod p) (int_range 0 (p - 2)) in
    let gen_move used =
      let* own = bool in
      if own then
        let* j = int_range 1 (2 * p) in
        if List.mem j used then return None
        else
          let src = owner.(j - 1) in
          let* dst = other src and* sg = sguard and* rg = rguard in
          return (Some (Own { j; src; dst; sg; rg }))
      else
        let* src = int_range 0 (p - 1) in
        let* dst = other src and* sg = sguard and* rg = rguard in
        return (Some (Copy { src; dst; sg; rg }))
    in
    let gen_round =
      let* n = int_range 1 (2 * p) in
      let* phased = bool in
      (* elements move at most once per round; ownership is updated
         after the round, so the next round sends from the new owner *)
      let rec go k used acc =
        if k = 0 then return (List.rev acc)
        else
          let* m = gen_move used in
          match m with
          | Some (Own o as mv) -> go (k - 1) (o.j :: used) (mv :: acc)
          | Some mv -> go (k - 1) used (mv :: acc)
          | None -> go (k - 1) used acc
      in
      let* moves = go n [] [] in
      List.iter
        (function Own o -> owner.(o.j - 1) <- o.dst | Copy _ -> ())
        moves;
      return (Round { phased; moves })
    in
    let gen_item =
      frequency
        [
          (3, gen_round);
          ( 2,
            map2
              (fun d by_elem -> Probe { d; by_elem })
              (int_range 0 (p - 1)) bool );
          (1, map (fun k -> Pad k) (int_range 1 12));
        ]
    in
    (* the generator's ownership model is sequential state, so items
       are drawn one after another *)
    let rec items k acc =
      if k = 0 then return (List.rev acc)
      else
        let* it = gen_item in
        items (k - 1) (it :: acc)
    in
    let* s_items = items nitems [] in
    return { s_nprocs = p; s_items; s_fault; s_cost })

let scan_program c =
  let p = c.s_nprocs in
  let grid = Xdp_dist.Grid.linear p in
  let one name n =
    decl ~name ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Block ] ~grid ~seg_shape:[ 1 ]
      ()
  in
  let a j = sec "A" [ at (i j) ] and bsec k = sec "B" [ at (i k) ] in
  let tme = sec "T" [ at mypid ] in
  let send_guard sg s src =
    match sg with
    | S_iown -> iown s
    | S_accessible -> accessible s
    | S_pid -> mypid =: i (src + 1)
  in
  let recv_guard rg ~table dst =
    match rg with
    | R_lit -> mypid =: i (dst + 1)
    | R_nprocs -> mypid =: nprocs -: i (p - 1 - dst)
    | R_var -> mypid +: var "off" =: i (dst + 4)
    | R_table -> (mypid =: i (dst + 1)) &&: table
  in
  let halves = function
    | Own { j; src; dst; sg; rg } ->
        ( send_guard sg (a j) src @: [ send_owner_value (a j) ],
          recv_guard rg ~table:(enot (iown (a j))) dst
          @: [ recv_owner_value (a j) ] )
    | Copy { src; dst; sg; rg } ->
        let s = bsec (src + 1) in
        ( send_guard sg s src @: [ send s ],
          recv_guard rg ~table:(iown tme) dst @: [ recv ~into:tme ~from:s ] )
  in
  let item = function
    | Round { phased; moves } ->
        let pairs = List.map halves moves in
        if phased then List.map fst pairs @ List.map snd pairs
        else List.concat_map (fun (s, r) -> [ s; r ]) pairs
    | Probe { d; by_elem } ->
        let g =
          if by_elem then elem "T" [ mypid ] >: f 0.5
          else accessible tme
        in
        [
          (g &&: (mypid =: i (d + 1)))
          @: [ set "T" [ mypid ] (elem "T" [ mypid ] +: f 1.0); send tme ];
        ]
    | Pad k ->
        List.init k (fun n ->
            (if n mod 2 = 0 then mypid =: nprocs +: i 1 else var "off" =: i 0)
            @: [ send (bsec 1) ])
  in
  program ~name:"guard-scan"
    ~decls:[ one "A" (2 * p); one "B" p; one "T" p ]
    (setv "off" (i 3) :: List.concat_map item c.s_items)

let scan_init name idx =
  match (name, idx) with
  | "A", [ j ] -> float_of_int (100 * j)
  | "B", [ k ] -> float_of_int (1000 + k)
  | _ -> 0.0

let scan_fault c =
  if not c.s_fault then Xdp_net.Faultplan.none
  else
    let g = Xdp_util.Prng.stream 0x5CA4 [ Hashtbl.hash c ] in
    Xdp_net.Faultplan.make
      ~seed:(Xdp_util.Prng.int g 1_000_000)
      ~drop:(Xdp_util.Prng.float_in g 0.0 0.3)
      ~dup:(Xdp_util.Prng.float_in g 0.0 0.2)
      ~deliver_after:(Xdp_util.Prng.int_in g 0 3)
      ()

let print_scfg c =
  Printf.sprintf "P=%d cost=%s fault=%s\n%s" c.s_nprocs
    scan_costs.(c.s_cost).Xdp_sim.Costmodel.name
    (Xdp_net.Faultplan.describe (scan_fault c))
    (Xdp.Pp.program_to_string (scan_program c))

(* One configuration's observable outcome: everything a caller can
   see, rendered to strings so any difference prints. *)
let scan_outcome c engine =
  let p = scan_program c in
  let cost = scan_costs.(c.s_cost) in
  match
    Exec.run ~engine ~cost ~init:scan_init ~fault:(scan_fault c) ~trace:true
      ~nprocs:c.s_nprocs p
  with
  | r ->
      let arrays =
        List.map
          (fun (a, n) ->
            let t = Exec.array r a in
            String.concat " "
              (List.init n (fun k ->
                   Printf.sprintf "%h" (Xdp_util.Tensor.get t [ k + 1 ]))))
          [ ("A", 2 * c.s_nprocs); ("B", c.s_nprocs); ("T", c.s_nprocs) ]
      in
      ( String.concat "\n" arrays
        ^ Format.asprintf "\n%a" Xdp_sim.Trace.pp_stats r.stats
        ^ Printf.sprintf "\nstatements=%d guard_evals=%d trace=%s"
            r.stats.statements r.stats.guard_evals
            (Digest.to_hex
               (Digest.string (Format.asprintf "%a" Xdp_sim.Trace.pp r.trace))),
        r.Exec.fusion.Exec.fused_turns )
  | exception e -> ("raised " ^ Printexc.to_string e, 0)

let check_scfg c =
  let fused, _ = scan_outcome c `Compiled in
  let interp, _ = scan_outcome c `Interp in
  let differ a b what =
    QCheck.Test.fail_reportf "%s differ:\n--- %s\n+++ %s\n%s" what a b
      (print_scfg c)
  in
  if fused <> interp then differ interp fused "fused compiled vs interp";
  true

let prop_guard_scans =
  QCheck.Test.make
    ~name:"guard scans: fused = interp on guarded transfers"
    ~count:300
    (QCheck.make ~print:print_scfg gen_scfg)
    check_scfg

(* The property above is only as good as its coverage: on a fixed
   sample, scans must actually happen, and the fused engine must run
   them in fewer turns than statements. *)
let test_guard_scans_happen () =
  let rand = Random.State.make [| 0x5CA4 |] in
  let cases = G.generate ~rand ~n:40 gen_scfg in
  let scans =
    List.fold_left (fun acc c -> acc + snd (scan_outcome c `Compiled)) 0 cases
  in
  Alcotest.(check bool) "some turns scanned several guards" true (scans > 0);
  List.iter (fun c -> Alcotest.(check bool) "agree" true (check_scfg c)) cases

(* A couple of fixed regression seeds that exercise every spec form. *)
let test_fixed_cases () =
  List.iter
    (fun cfg -> Alcotest.(check bool) "matches" true (check_cfg cfg))
    [
      {
        nprocs = 3;
        n = 12;
        dist_x = Xdp_dist.Dist.Block;
        dist_y = Xdp_dist.Dist.Cyclic;
        stmts =
          [
            Map ("X", "Y", 1, Add, 1.5);
            Scalar_mix ("X", 4);
            Accum ("Y", Mul, 2.0);
          ];
      };
      {
        nprocs = 4;
        n = 16;
        dist_x = Xdp_dist.Dist.Cyclic;
        dist_y = Xdp_dist.Dist.Cyclic;
        stmts = [ Map ("Y", "X", -1, Mul, 0.5); Map ("X", "Y", 0, Sub, 1.0) ];
      };
      {
        nprocs = 1;
        n = 4;
        dist_x = Xdp_dist.Dist.Block;
        dist_y = Xdp_dist.Dist.Block;
        stmts = [ Scalar_mix ("Y", 2) ];
      };
    ]

(* Batched loops: a counted loop whose body is one element store runs
   as a range kernel only when an entry check proves that no iteration
   can abort, and otherwise runs charged, statement by statement.
   Random loops, each wrapped in [mypid == 1 : { ... }] so that one
   processor is the only one that can abort, must give the
   interpreter's arrays, stats and diagnostic text: reads at offsets
   -2..2, a second dimension subscripted by a literal or a
   loop-invariant expression, bodies that read what they write,
   BLOCK/CYCLIC layouts tiled by segments smaller than the block,
   strided loops, ranges that run into unowned elements or past the
   array, and step budgets too small for a loop. *)

type bother =
  | O_lit of int  (** a literal *)
  | O_var  (** the scalar [k], bound before the loops *)
  | O_pid  (** [(mypid - 1) / 2 + 1] *)
  | O_unbound  (** a scalar no statement binds *)

type bacc = { b_arr : int; b_off : int; b_other : bother; b_vfirst : bool }

type bloop = {
  l_lo : int;
  l_len : int;
  l_step : int;
  l_store : bacc;
  l_reads : (binop * bacc) list;  (** the first operator is ignored *)
  l_const : binop * float;
  l_index : bool;  (** add [i * 0.5] to the right-hand side *)
}

type bcfg = {
  b_nprocs : int;
  b_n : int;  (** extent of the distributed dimension *)
  b_m : int;  (** extent of the second dimension of rank-2 arrays *)
  b_arrays : (Xdp_dist.Dist.t * bool * int list) array;
      (** per array: distribution, rank 2?, segment shape *)
  b_k : int;
  b_loops : bloop list;
  b_budget : int option;
}

let barrays = [| "X"; "Y"; "Z" |]

let gen_bcfg =
  G.(
    let* b_nprocs = int_range 1 3 in
    let* per = int_range 2 5 in
    let b_n = b_nprocs * per in
    let* b_m = int_range 2 3 in
    let gen_arr =
      let* dist = oneofl Xdp_dist.Dist.[ Block; Cyclic ] in
      let* rank2 = bool in
      let* s1 = frequency [ (3, return per); (2, int_range 1 per) ] in
      let* s2 = frequency [ (3, return b_m); (1, int_range 1 b_m) ] in
      return (dist, rank2, if rank2 then [ s1; s2 ] else [ s1 ])
    in
    let* a0 = gen_arr in
    let* a1 = gen_arr in
    let* a2 = gen_arr in
    let gen_acc ~store =
      let* b_arr = int_range 0 2 in
      let* b_off =
        if store then frequency [ (6, return 0); (1, int_range (-1) 1) ]
        else frequency [ (2, return 0); (3, int_range (-2) 2) ]
      in
      let* b_other =
        frequency
          [
            (8, map (fun l -> O_lit l) (int_range 1 b_m));
            (1, return (O_lit (b_m + 1)));
            (6, return O_var);
            (4, return O_pid);
            (1, return O_unbound);
          ]
      in
      let* b_vfirst = frequency [ (4, return true); (1, return false) ] in
      return { b_arr; b_off; b_other; b_vfirst }
    in
    let gen_op = oneofl [ Add; Sub; Mul; Max ] in
    (* mostly inside P1's part of the distributed dimension: rows
       1..per under BLOCK, every [nprocs]th row from 1 under CYCLIC *)
    let gen_loop arrays =
      let* l_store = gen_acc ~store:true in
      let dist, _, _ = arrays.(l_store.b_arr) in
      let* l_step =
        frequency
          [
            (3, return (if dist = Xdp_dist.Dist.Cyclic then b_nprocs else 1));
            (1, oneofl [ 1; 2; 3; b_nprocs ]);
          ]
      in
      let* l_lo =
        frequency [ (3, return 1); (2, int_range 2 3); (1, int_range 1 b_n) ]
      in
      let* l_len =
        frequency
          [
            (4, int_range 0 (max 0 ((per * l_step) - l_lo + 1)));
            (1, int_range 0 (b_n + 2));
          ]
      in
      let* nreads = int_range 1 3 in
      let* l_reads = list_repeat nreads (pair gen_op (gen_acc ~store:false)) in
      let* l_const = pair gen_op (float_range 0.5 2.5) in
      let* l_index = frequency [ (4, return false); (1, return true) ] in
      return { l_lo; l_len; l_step; l_store; l_reads; l_const; l_index }
    in
    let b_arrays = [| a0; a1; a2 |] in
    let* b_k = frequency [ (4, int_range 1 b_m); (1, return (b_m + 1)) ] in
    let* nloops = int_range 1 3 in
    let* b_loops = list_repeat nloops (gen_loop b_arrays) in
    (* a budget only on one processor: with several, the budget is a
       second processor that can abort, and which of two pending aborts
       fires first may differ under fusion (DESIGN.md §4d) *)
    let* b_budget =
      if b_nprocs > 1 then return None
      else frequency [ (1, return None); (1, map Option.some (int_range 2 30)) ]
    in
    return
      {
        b_nprocs;
        b_n;
        b_m;
        b_arrays;
        b_k;
        b_loops;
        b_budget;
      })

let batched_program c =
  let grid = Xdp_dist.Grid.linear c.b_nprocs in
  let decls =
    Array.to_list
      (Array.mapi
         (fun k (dist, rank2, seg_shape) ->
           if rank2 then
             decl ~name:barrays.(k) ~shape:[ c.b_n; c.b_m ]
               ~dist:[ dist; Xdp_dist.Dist.Star ] ~grid ~seg_shape ()
           else
             decl ~name:barrays.(k) ~shape:[ c.b_n ] ~dist:[ dist ] ~grid
               ~seg_shape ())
         c.b_arrays)
  in
  let iv = var "i" in
  let access a =
    let _, rank2, _ = c.b_arrays.(a.b_arr) in
    let v =
      if a.b_off = 0 then iv
      else if a.b_off > 0 then iv +: i a.b_off
      else iv -: i (-a.b_off)
    in
    let other =
      match a.b_other with
      | O_lit l -> i l
      | O_var -> var "k"
      | O_pid -> ((mypid -: i 1) /: i 2) +: i 1
      | O_unbound -> var "u"
    in
    let subs =
      if not rank2 then [ v ]
      else if a.b_vfirst then [ v; other ]
      else [ other; v ]
    in
    (barrays.(a.b_arr), subs)
  in
  let loop_of l =
    let read a =
      let name, subs = access a in
      elem name subs
    in
    let rhs =
      match l.l_reads with
      | [] -> f 0.0
      | (_, a) :: rest ->
          List.fold_left
            (fun acc (op, a) -> Bin (op, acc, read a))
            (read a) rest
    in
    let op, k = l.l_const in
    let rhs = Bin (op, rhs, f k) in
    let rhs = if l.l_index then rhs +: (iv *: f 0.5) else rhs in
    let name, subs = access l.l_store in
    (mypid =: i 1)
    @: [
         loop_step "i" (i l.l_lo)
           (i (l.l_lo + l.l_len - 1))
           (i l.l_step) [ set name subs rhs ];
       ]
  in
  program ~name:"batched"
    ~decls
    (setv "k" (i c.b_k) :: List.map loop_of c.b_loops)

let batched_init name idx =
  let base = match name with "X" -> 1.0 | "Y" -> 100.0 | _ -> 10000.0 in
  match idx with
  | [ i ] -> base +. (1.5 *. float_of_int i)
  | [ i; j ] -> base +. (1.5 *. float_of_int i) +. (0.25 *. float_of_int j)
  | _ -> 0.0

let print_bcfg c =
  Printf.sprintf "P=%d budget=%s %s\n%s" c.b_nprocs
    (match c.b_budget with None -> "default" | Some b -> string_of_int b)
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun k (d, _, seg) ->
               Printf.sprintf "%s:%s seg(%s)" barrays.(k)
                 (Xdp_dist.Dist.to_string d)
                 (String.concat "," (List.map string_of_int seg)))
             c.b_arrays)))
    (Xdp.Pp.program_to_string (batched_program c))

(* Everything a caller can see: every element of every array, the
   whole stats record and the trace, or the diagnostic text. *)
let batched_outcome c engine =
  let p = batched_program c in
  match
    Exec.run ~engine ?max_steps:c.b_budget ~init:batched_init ~trace:true
      ~nprocs:c.b_nprocs p
  with
  | r ->
      let elems k =
        let _, rank2, _ = c.b_arrays.(k) in
        let t = Exec.array r barrays.(k) in
        List.concat_map
          (fun i ->
            List.map
              (fun idx -> Printf.sprintf "%h" (Xdp_util.Tensor.get t idx))
              (if rank2 then List.init c.b_m (fun j -> [ i; j + 1 ])
               else [ [ i ] ]))
          (List.init c.b_n (fun i -> i + 1))
      in
      Ok
        (String.concat " " (List.concat_map elems [ 0; 1; 2 ])
        ^ Format.asprintf "\n%a" Xdp_sim.Trace.pp_stats r.stats
        ^ Printf.sprintf "\nstatements=%d stats=%s trace=%s" r.stats.statements
            (Digest.to_hex (Digest.string (Marshal.to_string r.stats [])))
            (Digest.to_hex
               (Digest.string (Format.asprintf "%a" Xdp_sim.Trace.pp r.trace))))
  | exception Exec.Xdp_misuse m -> Error m
  | exception e -> Error ("raised " ^ Printexc.to_string e)

let check_bcfg c =
  let interp = batched_outcome c `Interp in
  let fused = batched_outcome c `Compiled in
  let show = function Ok s -> s | Error m -> "error: " ^ m in
  if fused <> interp then
    QCheck.Test.fail_reportf
      "engines differ:\n--- interp: %s\n+++ compiled: %s\n%s"
      (show interp) (show fused) (print_bcfg c);
  true

let prop_batched_loops =
  QCheck.Test.make
    ~name:"batched loops: compiled = interp, diagnostics included"
    ~count:1000
    (QCheck.make ~print:print_bcfg gen_bcfg)
    check_bcfg

(* Coverage of the property above on a fixed sample: runs that
   complete, misuse diagnostics and budget aborts must all occur. *)
let test_batched_coverage () =
  let rand = Random.State.make [| 0xBA7C |] in
  let cases = G.generate ~rand ~n:200 gen_bcfg in
  let outcomes = List.map (fun c -> batched_outcome c `Compiled) cases in
  let count p = List.length (List.filter p outcomes) in
  let has sub = function
    | Error m ->
        let n = String.length sub in
        let rec at k =
          k + n <= String.length m && (String.sub m k n = sub || at (k + 1))
        in
        at 0
    | Ok _ -> false
  in
  Alcotest.(check bool) "some runs complete" true (count Result.is_ok > 20);
  Alcotest.(check bool) "some reads of unowned elements" true
    (count (has "read of unowned") > 5);
  Alcotest.(check bool) "some writes to unowned elements" true
    (count (has "write to unowned") > 5);
  Alcotest.(check bool) "some budget aborts" true
    (count (has "step budget exceeded") > 1);
  List.iter (fun c -> Alcotest.(check bool) "agree" true (check_bcfg c)) cases

let () =
  Alcotest.run "differential"
    [
      ( "pipeline vs reference",
        [
          Alcotest.test_case "fixed cases" `Quick test_fixed_cases;
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_differential_faulty;
          QCheck_alcotest.to_alcotest prop_engines;
          QCheck_alcotest.to_alcotest prop_fatal_faults;
        ] );
      ( "redistribution planner",
        [ QCheck_alcotest.to_alcotest prop_redist_planner ] );
      ( "batched loops",
        [
          Alcotest.test_case "outcomes covered, engines agree" `Quick
            test_batched_coverage;
          QCheck_alcotest.to_alcotest prop_batched_loops;
        ] );
      ( "guard scans",
        [
          Alcotest.test_case "scans happen, engines agree" `Quick
            test_guard_scans_happen;
          QCheck_alcotest.to_alcotest prop_guard_scans;
        ] );
    ]
