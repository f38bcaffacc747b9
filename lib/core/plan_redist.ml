open Build
open Xdp_util
open Xdp_dist

type budget = { peak_budget : int }
type strategy = [ `Naive | `Collectives of budget ]

type info = {
  shape : Collective.shape;
  window : int;
  stages : int;
  moves : int;
  moved_bytes : int;
  est_peak : int;
  est_makespan : float;
  naive_peak : int;
  budget : int;
  feasible : bool;
}

(* Window candidates: powers of two up to the round count, plus the
   round count itself (a single all-at-once stage). *)
let windows ~max_rounds =
  let rec up acc w =
    if w >= max_rounds then List.rev (max_rounds :: acc)
    else up (w :: acc) (2 * w)
  in
  if max_rounds <= 1 then [ 1 ] else up [] 1

(* Every plan is costed on the message-passing machine; only planning
   quality depends on the model, never results. *)
let cm = Xdp_sim.Costmodel.message_passing

let plan ~nprocs ~budget moves =
  if budget < 0 then invalid_arg "Plan_redist.plan: negative budget";
  let limit = if budget = 0 then max_int else budget in
  let nmoves = List.length moves in
  let moved_bytes =
    List.fold_left
      (fun acc m ->
        Redistribution.checked_add "plan bytes" acc
          (Collective.move_bytes cm m))
      0 moves
  in
  let naive_peak = Collective.naive_peak cm ~nprocs moves in
  let mk_info (sched : Collective.schedule) (est : Collective.estimate)
      feasible =
    {
      shape = sched.shape;
      window = sched.window;
      stages = Array.length sched.stages;
      moves = nmoves;
      moved_bytes;
      est_peak = est.est_peak;
      est_makespan = est.est_makespan;
      naive_peak;
      budget;
      feasible;
    }
  in
  let max_rounds = max 1 (nprocs - 1) in
  let candidates =
    List.concat_map
      (fun shape ->
        List.filter_map
          (fun w ->
            match Collective.build shape ~nprocs ~window:w moves with
            | None -> None
            | Some sched -> Some (sched, Collective.estimate cm sched))
          (windows ~max_rounds))
      Collective.all_shapes
  in
  (* Greedy selection: best in-budget candidate by estimated makespan
     (ties: fewer stages, then candidate order); if nothing fits,
     fall back to the lowest-peak candidate. *)
  let pick_feasible =
    List.fold_left
      (fun best ((s, e) as c) ->
        if e.Collective.est_peak > limit then best
        else
          match best with
          | None -> Some c
          | Some (bs, be) ->
              if
                e.Collective.est_makespan < be.Collective.est_makespan
                || (e.est_makespan = be.est_makespan
                    && Array.length s.Collective.stages
                       < Array.length bs.Collective.stages)
              then Some c
              else best)
      None candidates
  in
  match pick_feasible with
  | Some (sched, est) -> (sched, mk_info sched est true)
  | None ->
      let sched, est =
        match
          List.fold_left
            (fun best ((_, e) as c) ->
              match best with
              | None -> Some c
              | Some (_, be) ->
                  if
                    e.Collective.est_peak < be.Collective.est_peak
                    || (e.est_peak = be.est_peak
                        && e.est_makespan < be.est_makespan)
                  then Some c
                  else best)
            None candidates
        with
        | Some c -> c
        | None ->
            (* no moves at all: trivial empty schedule *)
            let sched =
              { Collective.shape = Ring; window = 1; nprocs; stages = [||] }
            in
            (sched, Collective.estimate cm sched)
      in
      (sched, mk_info sched est (nmoves = 0))

(* --- lowering --- *)

let sel_of_box box =
  List.map
    (fun tr ->
      let lo = Triplet.first tr and hi = Triplet.last tr in
      if lo = hi then at (i lo)
      else
        let st = tr.Triplet.stride in
        if st = 1 then slice (i lo) (i hi) else slice3 (i lo) (i hi) (i st))
    (Box.dims box)

(* Group a stage's (already sorted) moves by [key], preserving order
   inside each group; groups come out in ascending key order. *)
let group_by key ms =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun m ->
      let k = key m in
      match Hashtbl.find_opt tbl k with
      | Some r -> r := m :: !r
      | None -> Hashtbl.add tbl k (ref [ m ]))
    ms;
  Hashtbl.fold (fun k r acc -> (k, List.rev !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let lower ~array (sched : Collective.schedule) =
  let stages = sched.stages in
  let n = Array.length stages in
  let out = ref [] in
  let push s = out := s :: !out in
  for s = 0 to n - 1 do
    let gates =
      if s = 0 then [] else group_by (fun m -> m.Redistribution.dst) stages.(s - 1)
    in
    (* per-source send groups: stage gate awaits, then the sends *)
    List.iter
      (fun (src, ms) ->
        let gate_stmts =
          match List.assoc_opt src gates with
          | None -> []
          | Some received ->
              List.map
                (fun (g : Redistribution.move) ->
                  await (sec array (sel_of_box g.box)) @: [])
                received
        in
        let sends =
          List.map
            (fun (m : Redistribution.move) ->
              send_owner_value (sec array (sel_of_box m.box)))
            ms
        in
        push ((mypid =: i (src + 1)) @: (gate_stmts @ sends)))
      (group_by (fun m -> m.Redistribution.src) stages.(s));
    (* per-destination receive groups *)
    List.iter
      (fun (dst, ms) ->
        let recvs =
          List.map
            (fun (m : Redistribution.move) ->
              recv_owner_value (sec array (sel_of_box m.box)))
            ms
        in
        push ((mypid =: i (dst + 1)) @: recvs))
      (group_by (fun m -> m.Redistribution.dst) stages.(s))
  done;
  List.rev !out
