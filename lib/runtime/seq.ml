open Xdp.Ir
open Xdp_util

type result = {
  arrays : (string * Tensor.t) list;
  scalars : (string * Value.t) list;
}

let array r name =
  match List.assoc_opt name r.arrays with
  | Some t -> t
  | None -> invalid_arg ("Seq.array: no array " ^ name)

let run ?(init = fun _ _ -> 0.0) ?(scalars = []) (p : program) =
  let tensors = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let shape = Xdp_dist.Layout.shape d.layout in
      Hashtbl.replace tensors d.arr_name
        (Tensor.init shape (init d.arr_name)))
    p.decls;
  let env : Evalexpr.env = Hashtbl.create 16 in
  List.iter (fun (v, x) -> Hashtbl.replace env v x) scalars;
  let tensor name =
    match Hashtbl.find_opt tensors name with
    | Some t -> t
    | None -> invalid_arg ("Seq: undeclared array " ^ name)
  in
  let hooks =
    Evalexpr.sequential_hooks
      ~shape_of:(fun name -> Tensor.shape (tensor name))
      ~elem:(fun name idx -> Tensor.get_a (tensor name) idx)
      ~cm:Xdp_sim.Costmodel.idealized
  in
  let rec stmt = function
    | Assign (Lvar v, e) -> Hashtbl.replace env v (Evalexpr.eval hooks env e)
    | Assign (Lelem (a, idxs), e) ->
        let idx = List.map (Evalexpr.eval_int hooks env) idxs in
        let v = Value.to_float (Evalexpr.eval hooks env e) in
        Tensor.set (tensor a) idx v
    | For { var; lo; hi; step; body; _ } ->
        let lo = Evalexpr.eval_int hooks env lo in
        let hi = Evalexpr.eval_int hooks env hi in
        let step = Evalexpr.eval_int hooks env step in
        if step <= 0 then invalid_arg "Seq: non-positive loop step";
        let i = ref lo in
        while !i <= hi do
          Hashtbl.replace env var (Value.VInt !i);
          List.iter stmt body;
          i := !i + step
        done
    | If (c, a, b) ->
        if Value.to_bool (Evalexpr.eval hooks env c) then List.iter stmt a
        else List.iter stmt b
    | Apply { fn; args } -> (
        match Xdp.Kernels.find Xdp.Kernels.default fn with
        | None -> invalid_arg ("Seq: unknown kernel " ^ fn)
        | Some k ->
            let boxes =
              List.map (Evalexpr.resolve_section hooks env) args
            in
            let bufs =
              List.map2 (fun s b -> Tensor.extract (tensor s.arr) b) args
                boxes
            in
            k.apply bufs;
            List.iter2
              (fun (s, b) buf -> Tensor.blit (tensor s.arr) b buf)
              (List.combine args boxes)
              bufs)
    | Guard _ | Send_value _ | Send_owner _ | Send_owner_value _
    | Recv_value _ | Recv_owner _ | Recv_owner_value _ ->
        invalid_arg "Seq: XDP construct in sequential program"
  in
  List.iter stmt p.body;
  {
    arrays =
      List.map (fun d -> (d.arr_name, tensor d.arr_name)) p.decls;
    scalars = Hashtbl.fold (fun k v acc -> (k, v) :: acc) env [];
  }
