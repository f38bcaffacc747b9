module Prng = Xdp_util.Prng

type objective = Bytes | Makespan

let objective_of_string = function
  | "bytes" -> Ok Bytes
  | "makespan" -> Ok Makespan
  | s ->
      Error
        (Printf.sprintf "unknown objective '%s' (accepted: bytes, makespan)" s)

let objective_name = function Bytes -> "bytes" | Makespan -> "makespan"

type options = {
  seed : int;
  rounds : int;
  proposals : int;
  objective : objective;
}

let default_options = { seed = 1; rounds = 120; proposals = 8; objective = Bytes }

type result = {
  best : Space.placement;
  best_summary : Space.summary;
  naive_summary : Space.summary;
  hand_summary : Space.summary;
  evaluated : int;
  seeded : int;
}

(* Total order on scored placements: the objective, then endpoint
   messages, then the canonical key — so argmins are deterministic
   even across exact ties. *)
type score = { primary : float; s_msgs : int; s_key : string }

let score_of objective p (s : Space.summary) =
  let primary =
    match objective with
    | Bytes -> float_of_int s.Space.comm.Estimate.wire_bytes
    | Makespan -> s.Space.est_makespan
  in
  { primary; s_msgs = s.Space.comm.Estimate.msgs; s_key = Space.key p }

let better a b =
  a.primary < b.primary
  || (a.primary = b.primary
      && (a.s_msgs < b.s_msgs
          || (a.s_msgs = b.s_msgs && a.s_key < b.s_key)))

(* ------------------------------------------------------------------ *)
(* Mutations.  Each returns a normalized placement; an inapplicable
   or invalid draw degenerates to the input (scored again, harmless). *)

let all_acts = [ Space.Row; Space.Col; Space.Repl ]

let mutate cfg (p : Space.placement) rng =
  let open Space in
  let n = Array.length p.layers in
  let layer_ix () = Prng.int rng n in
  let with_layer i f = { p with layers = Array.mapi (fun j l -> if j = i then f l else l) p.layers } in
  let feature_shardable dp = cfg.dim mod dp = 0 in
  let cand =
    match Prng.int rng 5 with
    | 0 ->
        let i = layer_ix () in
        let cur = p.layers.(i).act in
        let choices =
          List.filter
            (fun a -> a <> cur && (a <> Col || feature_shardable p.dp))
            all_acts
        in
        if choices = [] then p
        else
          let a = Prng.choose rng choices in
          with_layer i (fun l -> { l with act = a })
    | 1 ->
        let i = layer_ix () in
        let l = p.layers.(i) in
        let w =
          match l.wgt with
          | Wshard -> Wrepl
          | Wrepl -> if feature_shardable p.dp then Wshard else Wrepl
        in
        with_layer i (fun l -> { l with wgt = w })
    | 2 ->
        let i = layer_ix () in
        let l = p.layers.(i) in
        if l.act = Row && l.wgt = Wrepl then
          with_layer i (fun l ->
              { l with gsum = (match l.gsum with Tree -> Allgather | Allgather -> Tree) })
        else p
    | 3 ->
        if p.pp = 1 then p
        else
          let i = layer_ix () in
          let lo = if i = 0 then 0 else p.layers.(i - 1).stage in
          let hi = if i = n - 1 then p.pp - 1 else p.layers.(i + 1).stage in
          let s = Prng.int_in rng lo hi in
          with_layer i (fun l -> { l with stage = s })
    | _ -> (
        let others =
          List.filter (fun (dp, _) -> dp <> p.dp) (Space.meshes cfg)
        in
        match others with
        | [] -> p
        | ms ->
            let dp, pp = Prng.choose rng ms in
            let shardable = feature_shardable dp in
            {
              dp;
              pp;
              layers =
                Array.map
                  (fun l ->
                    {
                      l with
                      stage = l.stage * pp / p.pp;
                      act = (if l.act = Col && not shardable then Row else l.act);
                      wgt = (if l.wgt = Wshard && not shardable then Wrepl else l.wgt);
                    })
                  p.layers;
            })
  in
  let cand = Space.normalize cand in
  match Space.validate cfg cand with Ok () -> cand | Error _ -> p

(* ------------------------------------------------------------------ *)

let seed_population cfg =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let push p =
    let k = Space.key p in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out := p :: !out
    end
  in
  push (Space.naive cfg);
  push (Space.hand cfg);
  List.iter
    (fun (dp, pp) ->
      List.iter
        (fun act ->
          List.iter
            (fun wgt ->
              List.iter
                (fun gsum ->
                  match Space.uniform cfg ~dp ~pp act wgt gsum with
                  | Some p -> push p
                  | None -> ())
                [ Space.Tree; Space.Allgather ])
            [ Space.Wshard; Space.Wrepl ])
        all_acts)
    (Space.meshes cfg);
  List.rev !out

let search cfg opts =
  (match Space.validate_config cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Anneal.search: " ^ e));
  if opts.rounds < 0 || opts.proposals < 1 then
    invalid_arg "Anneal.search: rounds must be >= 0, proposals >= 1";
  let score = score_of opts.objective in
  let naive_summary = Space.estimate cfg (Space.naive cfg) in
  let hand_summary = Space.estimate cfg (Space.hand cfg) in
  (* Phase 1: enumerate and score every uniform placement. *)
  let seeds = Array.of_list (seed_population cfg) in
  let seed_summaries = Array.map (Space.estimate cfg) seeds in
  let best = ref seeds.(0) and best_sum = ref seed_summaries.(0) in
  let best_score = ref (score seeds.(0) seed_summaries.(0)) in
  Array.iteri
    (fun i p ->
      let sc = score p seed_summaries.(i) in
      if better sc !best_score then begin
        best := p;
        best_sum := seed_summaries.(i);
        best_score := sc
      end)
    seeds;
  let evaluated = ref (Array.length seeds) in
  (* Phase 2: anneal from the enumeration winner. *)
  let cur = ref !best and cur_score = ref !best_score in
  let t0 = 0.25 and t1 = 0.01 in
  for round = 0 to opts.rounds - 1 do
    let frac =
      if opts.rounds <= 1 then 1.0
      else float_of_int round /. float_of_int (opts.rounds - 1)
    in
    let temp = t0 *. ((t1 /. t0) ** frac) in
    let props =
      Array.init opts.proposals (fun k ->
          mutate cfg !cur (Prng.stream opts.seed [ 1; round; k ]))
    in
    let sums = Array.map (Space.estimate cfg) props in
    evaluated := !evaluated + Array.length props;
    (* best proposal of the round, deterministically *)
    let bi = ref 0 in
    let bsc = ref (score props.(0) sums.(0)) in
    Array.iteri
      (fun i p ->
        let sc = score p sums.(i) in
        if better sc !bsc then begin
          bi := i;
          bsc := sc
        end)
      props;
    let prop = props.(!bi) and prop_sc = !bsc in
    if better prop_sc !best_score then begin
      best := prop;
      best_sum := sums.(!bi);
      best_score := prop_sc
    end;
    let accept =
      if better prop_sc !cur_score then true
      else
        let delta =
          (prop_sc.primary -. !cur_score.primary)
          /. Float.max 1.0 (Float.abs !cur_score.primary)
        in
        let u = Prng.float (Prng.stream opts.seed [ 2; round ]) in
        u < Float.exp (-.delta /. temp)
    in
    if accept then begin
      cur := prop;
      cur_score := prop_sc
    end
  done;
  {
    best = !best;
    best_summary = !best_sum;
    naive_summary;
    hand_summary;
    evaluated = !evaluated;
    seeded = Array.length seeds;
  }
