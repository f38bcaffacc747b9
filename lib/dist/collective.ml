open Xdp_util

type shape = Ring | Exchange | Gather_scatter

let shape_name = function
  | Ring -> "ring"
  | Exchange -> "exchange"
  | Gather_scatter -> "gather_scatter"

let all_shapes = [ Ring; Exchange; Gather_scatter ]

type schedule = {
  shape : shape;
  window : int;
  nprocs : int;
  stages : Redistribution.move list array;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let sort_moves =
  List.sort (fun (a : Redistribution.move) (b : Redistribution.move) ->
      match compare (a.src, a.dst) (b.src, b.dst) with
      | 0 -> Box.compare a.box b.box
      | c -> c)

let check_moves ~nprocs moves =
  List.iter
    (fun (m : Redistribution.move) ->
      if m.src = m.dst then
        invalid_arg "Collective.build: move with src = dst";
      if m.src < 0 || m.src >= nprocs || m.dst < 0 || m.dst >= nprocs then
        invalid_arg "Collective.build: move endpoint outside machine")
    moves

(* Group moves into stages by a per-move slot in [0, nslots); empty
   slots vanish, occupied ones keep ascending order. *)
let stage_by ~nslots slot_of moves =
  let buckets = Array.make nslots [] in
  List.iter
    (fun m ->
      let s = slot_of m in
      buckets.(s) <- m :: buckets.(s))
    moves;
  Array.to_list buckets
  |> List.filter_map (function [] -> None | ms -> Some (sort_moves ms))
  |> Array.of_list

let build shape ~nprocs ~window moves =
  if window < 1 then invalid_arg "Collective.build: window < 1";
  check_moves ~nprocs moves;
  match moves with
  | [] -> Some { shape; window; nprocs; stages = [||] }
  | _ -> (
      match shape with
      | Ring ->
          (* round r in [1, P-1]: src sends r hops down the ring *)
          let slot_of (m : Redistribution.move) =
            let r = ((m.dst - m.src) mod nprocs + nprocs) mod nprocs in
            (r - 1) / window
          in
          let nslots = (nprocs + window - 2) / window in
          Some { shape; window; nprocs;
                 stages = stage_by ~nslots slot_of moves }
      | Exchange ->
          if not (is_pow2 nprocs) then None
          else
            (* round r in [1, P-1]: the perfect matching p <-> p xor r *)
            let slot_of (m : Redistribution.move) =
              ((m.src lxor m.dst) - 1) / window
            in
            let nslots = (nprocs + window - 2) / window in
            Some { shape; window; nprocs;
                   stages = stage_by ~nslots slot_of moves }
      | Gather_scatter ->
          (* windows over the occupied destinations, in order *)
          let dsts =
            List.sort_uniq compare
              (List.map (fun (m : Redistribution.move) -> m.dst) moves)
          in
          let pos = Hashtbl.create 64 in
          List.iteri (fun k d -> Hashtbl.add pos d k) dsts;
          let slot_of (m : Redistribution.move) =
            Hashtbl.find pos m.dst / window
          in
          let nslots = (List.length dsts + window - 1) / window in
          Some { shape; window; nprocs;
                 stages = stage_by ~nslots slot_of moves })

let move_bytes (cm : Xdp_sim.Costmodel.t) (m : Redistribution.move) =
  let elems = Redistribution.box_elems m.box in
  Redistribution.checked_add "move bytes"
    (Redistribution.checked_mul "move bytes" elems cm.elem_bytes)
    cm.header_bytes

type estimate = {
  est_peak : int;
  est_peak_per_proc : int array;
  est_makespan : float;
}

let estimate (cm : Xdp_sim.Costmodel.t) sched =
  let p = sched.nprocs and s = Array.length sched.stages in
  if s = 0 then
    { est_peak = 0; est_peak_per_proc = Array.make p 0; est_makespan = 0.0 }
  else begin
    let add = Redistribution.checked_add "estimated bytes" in
    (* per (proc, stage) traffic, flattened proc-major *)
    let out_b = Array.make (p * s) 0 and in_b = Array.make (p * s) 0 in
    let out_n = Array.make (p * s) 0 and in_n = Array.make (p * s) 0 in
    Array.iteri
      (fun st ms ->
        List.iter
          (fun (m : Redistribution.move) ->
            let b = move_bytes cm m in
            let si = (m.src * s) + st and di = (m.dst * s) + st in
            out_b.(si) <- add out_b.(si) b;
            in_b.(di) <- add in_b.(di) b;
            out_n.(si) <- out_n.(si) + 1;
            in_n.(di) <- in_n.(di) + 1)
          ms)
      sched.stages;
    (* Peak per processor: a stage-[st] operation can be in flight
       from the processor's last stage gate at or before [st] (a gate
       exists where it both received in the previous stage and sends
       now) until one stage past [st].  Sweep a difference array over
       stage time. *)
    let peaks = Array.make p 0 in
    let diff = Array.make (s + 2) 0 in
    for q = 0 to p - 1 do
      Array.fill diff 0 (s + 2) 0;
      let last_gate = ref 0 in
      for st = 0 to s - 1 do
        if st > 0 && in_b.((q * s) + st - 1) > 0 && out_b.((q * s) + st) > 0
        then last_gate := st;
        let upto = min (st + 2) (s + 1) in
        let bytes = add out_b.((q * s) + st) in_b.((q * s) + st) in
        if bytes > 0 then begin
          (* plain adds: diff entries go negative by construction; the
             running occupancy below stays within the checked totals *)
          diff.(!last_gate) <- diff.(!last_gate) + bytes;
          diff.(upto) <- diff.(upto) - bytes
        end
      done;
      let acc = ref 0 and best = ref 0 in
      for t = 0 to s + 1 do
        acc := !acc + diff.(t);
        if !acc > !best then best := !acc
      done;
      peaks.(q) <- !best
    done;
    (* Makespan: per stage, the heaviest processor's initiation work
       plus an alpha-beta transfer of the heaviest byte load.  A
       ranking metric only — the simulator reports the real number. *)
    let makespan = ref 0.0 in
    for st = 0 to s - 1 do
      let init = ref 0.0 and heavy = ref 0 in
      for q = 0 to p - 1 do
        let k = (q * s) + st in
        let w =
          (float_of_int out_n.(k) *. cm.time_send_init)
          +. (float_of_int in_n.(k) *. cm.time_recv_init)
        in
        if w > !init then init := w;
        if out_b.(k) > !heavy then heavy := out_b.(k);
        if in_b.(k) > !heavy then heavy := in_b.(k)
      done;
      makespan :=
        !makespan +. !init +. cm.alpha +. (cm.beta *. float_of_int !heavy)
    done;
    {
      est_peak = Array.fold_left max 0 peaks;
      est_peak_per_proc = peaks;
      est_makespan = !makespan;
    }
  end

let naive_peak cm ~nprocs moves =
  let out = Array.make (max nprocs 1) 0 in
  List.iter
    (fun (m : Redistribution.move) ->
      out.(m.src) <-
        Redistribution.checked_add "naive peak" out.(m.src) (move_bytes cm m))
    moves;
  Array.fold_left max 0 out

let describe sched =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "collective shape=%s window=%d nprocs=%d stages=%d\n"
       (shape_name sched.shape) sched.window sched.nprocs
       (Array.length sched.stages));
  Array.iteri
    (fun st ms ->
      Buffer.add_string b
        (Printf.sprintf "stage %d (%d moves):\n" st (List.length ms));
      List.iter
        (fun m ->
          Buffer.add_string b
            (Format.asprintf "  %a\n" Redistribution.pp_move m))
        ms)
    sched.stages;
  Buffer.contents b
