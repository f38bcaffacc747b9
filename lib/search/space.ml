type act = Row | Col | Repl
type wgt = Wshard | Wrepl
type gsum = Tree | Allgather
type layer_spec = { stage : int; act : act; wgt : wgt; gsum : gsum }
type placement = { dp : int; pp : int; layers : layer_spec array }
type config = { procs : int; batch : int; dim : int; nlayers : int }

let act_name = function Row -> "row" | Col -> "col" | Repl -> "repl"

let act_of_string = function
  | "row" -> Ok Row
  | "col" -> Ok Col
  | "repl" | "replicate" -> Ok Repl
  | s ->
      Error
        (Printf.sprintf
           "unknown activation spec '%s' (accepted: row, col, repl)" s)

let wgt_name = function Wshard -> "shard" | Wrepl -> "repl"

let wgt_of_string = function
  | "shard" -> Ok Wshard
  | "repl" | "replicate" -> Ok Wrepl
  | s ->
      Error
        (Printf.sprintf "unknown weight spec '%s' (accepted: shard, repl)" s)

let gsum_name = function Tree -> "tree" | Allgather -> "allgather"

let act_char = function Row -> 'r' | Col -> 'c' | Repl -> 'R'
let wgt_char = function Wshard -> 's' | Wrepl -> 'w'
let gsum_char = function Tree -> 't' | Allgather -> 'g'

let key p =
  let b = Buffer.create 64 in
  Printf.bprintf b "dp%d.pp%d:" p.dp p.pp;
  Array.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%c%c%c%d" (act_char l.act) (wgt_char l.wgt)
        (gsum_char l.gsum) l.stage)
    p.layers;
  Buffer.contents b

let describe cfg p =
  let b = Buffer.create 256 in
  Printf.bprintf b "mesh %d x %d (pipeline x data-parallel), %d layers:\n"
    p.pp p.dp cfg.nlayers;
  Array.iteri
    (fun i l ->
      Printf.bprintf b "  layer %d: stage %d, act %-4s wgt %-5s%s\n" (i + 1)
        l.stage (act_name l.act) (wgt_name l.wgt)
        (if l.act = Row && l.wgt = Wrepl then " grad " ^ gsum_name l.gsum
         else ""))
    p.layers;
  Buffer.contents b

(* gsum only matters on replicated-weight data-parallel Row layers;
   pin it elsewhere so equal placements get equal keys. *)
let normalize p =
  {
    p with
    layers =
      Array.map
        (fun l ->
          if l.act = Row && l.wgt = Wrepl then l else { l with gsum = Tree })
        p.layers;
  }

let validate_config cfg =
  if cfg.procs < 1 then Error "procs must be >= 1"
  else if cfg.batch < 1 then Error "batch must be >= 1"
  else if cfg.dim < 1 then Error "dim must be >= 1"
  else if cfg.nlayers < 1 then Error "layers must be >= 1"
  else if cfg.batch mod cfg.procs <> 0 then
    Error
      (Printf.sprintf "batch %d must be a multiple of procs %d" cfg.batch
         cfg.procs)
  else Ok ()

let validate cfg p =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match validate_config cfg with
  | Error _ as e -> e
  | Ok () ->
      if p.dp < 1 || p.pp < 1 then err "mesh factors must be >= 1"
      else if p.dp * p.pp <> cfg.procs then
        err "mesh %d x %d does not factor procs %d" p.pp p.dp cfg.procs
      else if Array.length p.layers <> cfg.nlayers then
        err "placement has %d layer specs for %d layers"
          (Array.length p.layers) cfg.nlayers
      else if cfg.batch mod p.dp <> 0 then
        err "batch %d not a multiple of dp %d" cfg.batch p.dp
      else
        let bad = ref None in
        Array.iteri
          (fun i l ->
            if !bad = None then
              if l.stage < 0 || l.stage >= p.pp then
                bad :=
                  Some
                    (Printf.sprintf "layer %d: stage %d outside mesh of %d"
                       (i + 1) l.stage p.pp)
              else if i > 0 && l.stage < p.layers.(i - 1).stage then
                bad :=
                  Some
                    (Printf.sprintf
                       "layer %d: stage %d before layer %d's stage %d"
                       (i + 1) l.stage i
                       p.layers.(i - 1).stage)
              else if
                (l.act = Col || l.wgt = Wshard) && cfg.dim mod p.dp <> 0
              then
                bad :=
                  Some
                    (Printf.sprintf
                       "layer %d: %s needs dim %d divisible by dp %d" (i + 1)
                       (if l.act = Col then "act col" else "wgt shard")
                       cfg.dim p.dp))
          p.layers;
        (match !bad with Some m -> Error m | None -> Ok ())

let uniform_layers ~nlayers ~pp act wgt gsum =
  Array.init nlayers (fun i ->
      { stage = i * pp / nlayers; act; wgt; gsum })

let naive cfg =
  {
    dp = cfg.procs;
    pp = 1;
    layers = uniform_layers ~nlayers:cfg.nlayers ~pp:1 Repl Wrepl Tree;
  }

let hand cfg =
  {
    dp = cfg.procs;
    pp = 1;
    layers = uniform_layers ~nlayers:cfg.nlayers ~pp:1 Row Wrepl Tree;
  }

let meshes cfg =
  let ms = ref [] in
  for dp = 1 to cfg.procs do
    if cfg.procs mod dp = 0 then begin
      let pp = cfg.procs / dp in
      if pp <= cfg.nlayers then ms := (dp, pp) :: !ms
    end
  done;
  (* built ascending in dp, so the accumulator is largest-dp first *)
  !ms

let uniform cfg ~dp ~pp act wgt gsum =
  let p =
    normalize
      { dp; pp; layers = uniform_layers ~nlayers:cfg.nlayers ~pp act wgt gsum }
  in
  match validate cfg p with Ok () -> Some p | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Elision predicates, shared verbatim with Dlstack's elaborator.      *)

let entry_elided cfg p =
  p.pp = 1 && p.dp = cfg.procs && p.layers.(0).act = Row

let exit_elided cfg p =
  let last = p.layers.(Array.length p.layers - 1) in
  p.pp = 1 && last.stage = 0
  && (last.act = Repl || (last.act = Row && p.dp = cfg.procs))

let transfer_elided ~src ~dst =
  src.stage = dst.stage && (src.act = dst.act || src.act = Repl)

(* ------------------------------------------------------------------ *)
(* The estimator.  One (messages, payload-elements-per-message) pair
   per communication pattern; Dlstack.build emits exactly these
   messages (including data-parallel self-messages, which the board
   delivers like any other), so the totals match executed Stats
   exactly — the exactness property in test_search.ml pins this. *)

type summary = {
  comm : Estimate.t;
  compute_elems : int;
  est_makespan : float;
}

(* The machine-wide input/output arrays are batch-sharded over all
   [procs]; every processor ships its block to the consumers that
   need it (or reads/writes in place when elided). *)
let entry_op cfg p =
  let pr = cfg.procs and b = cfg.batch and d = cfg.dim in
  match p.layers.(0).act with
  | Row -> (pr, b / pr * d)
  | Col -> (pr * p.dp, b / pr * (d / p.dp))
  | Repl -> (pr * p.dp, b / pr * d)

let exit_op cfg p =
  let pr = cfg.procs and b = cfg.batch and d = cfg.dim in
  match p.layers.(Array.length p.layers - 1).act with
  | Row -> (pr, b / pr * d)
  | Col -> (pr * p.dp, b / pr * (d / p.dp))
  | Repl -> (pr, b / pr * d)

(* Resharding activations between consecutive layers: a piece per
   (producer peer, consumer peer) pair that shares data, whether or
   not the two stages coincide. *)
let transfer_op cfg p ~src ~dst =
  let dp = p.dp and b = cfg.batch and d = cfg.dim in
  match (src.act, dst.act) with
  | Row, Row -> (dp, b / dp * d)
  | Row, Col -> (dp * dp, b / dp * (d / dp))
  | Row, Repl -> (dp * dp, b / dp * d)
  | Col, Row -> (dp * dp, b / dp * (d / dp))
  | Col, Col -> (dp, b * (d / dp))
  | Col, Repl -> (dp * dp, b * (d / dp))
  | Repl, Row -> (dp, b / dp * d)
  | Repl, Col -> (dp, b * (d / dp))
  | Repl, Repl -> (dp, b * d)

(* Sharded weights under a non-Col activation spec: every peer needs
   the whole weight vector, so peers allgather their blocks (own
   block copied locally, no self-message). *)
let allgather_op cfg p (l : layer_spec) =
  if l.wgt = Wshard && l.act <> Col then
    Some (p.dp * (p.dp - 1), cfg.dim / p.dp)
  else None

(* The gradient allreduce; Col partials are disjoint feature blocks
   (concatenation, not summation), Repl partials are already total. *)
let grad_ops cfg p (l : layer_spec) =
  let dp = p.dp and d = cfg.dim in
  match (l.act, l.wgt, l.gsum) with
  | Repl, _, _ | Col, Wshard, _ -> []
  | Col, Wrepl, _ -> [ (dp * (dp - 1), d / dp) ]
  | Row, Wshard, _ -> [ (dp * (dp - 1), d / dp) ]
  | Row, Wrepl, Tree -> [ (dp - 1, d); (dp - 1, d) ]
  | Row, Wrepl, Allgather -> [ (dp * (dp - 1), d) ]

let comm_ops cfg p =
  let n = Array.length p.layers in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  if not (entry_elided cfg p) then push (entry_op cfg p);
  for i = 0 to n - 1 do
    let l = p.layers.(i) in
    if i > 0 then begin
      let src = p.layers.(i - 1) in
      if not (transfer_elided ~src ~dst:l) then
        push (transfer_op cfg p ~src ~dst:l)
    end;
    (match allgather_op cfg p l with Some op -> push op | None -> ());
    List.iter push (grad_ops cfg p l)
  done;
  if not (exit_elided cfg p) then push (exit_op cfg p);
  List.rev !ops

(* Busiest processor's computed elements: within a stage every peer
   does the same amount, and the pipeline serializes stages. *)
let compute_elems cfg p =
  let b = cfg.batch and d = cfg.dim in
  Array.fold_left
    (fun acc l ->
      let fwd =
        match l.act with
        | Row -> b / p.dp * d
        | Col -> b * (d / p.dp)
        | Repl -> b * d
      in
      let upd = match l.wgt with Wshard -> d / p.dp | Wrepl -> d in
      (* forward multiply-add, gradient fold, weight update *)
      acc + (2 * fwd) + upd)
    0 p.layers

let estimate cfg p =
  let cm = Xdp_sim.Costmodel.message_passing in
  (match validate cfg p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Space.estimate: " ^ e));
  let comm =
    List.fold_left
      (fun acc (count, elems) ->
        Estimate.add acc (Estimate.messages cm ~count ~elems))
      Estimate.zero (comm_ops cfg p)
  in
  let ce = compute_elems cfg p in
  let est_makespan =
    (float_of_int ce
    *. ((2.0 *. cm.time_flop) +. (3.0 *. cm.time_mem)))
    +. (Estimate.transfer_time cm comm /. float_of_int p.dp)
  in
  { comm; compute_elems = ce; est_makespan }
