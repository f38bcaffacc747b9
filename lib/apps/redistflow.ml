open Xdp.Ir

let layout_before ~n ~m ~nprocs =
  Xdp_dist.Layout.make ~shape:[ m; n; n ]
    ~dist:[ Xdp_dist.Dist.Star; Xdp_dist.Dist.Star; Xdp_dist.Dist.Block ]
    ~grid:(Xdp_dist.Grid.linear nprocs)

let layout_after ~n ~m ~nprocs =
  Xdp_dist.Layout.make ~shape:[ m; n; n ]
    ~dist:[ Xdp_dist.Dist.Star; Xdp_dist.Dist.Block; Xdp_dist.Dist.Star ]
    ~grid:(Xdp_dist.Grid.linear nprocs)

let check ~n ~nprocs ~m =
  if nprocs < 1 then invalid_arg "Redistflow: nprocs < 1";
  if m < 1 then invalid_arg "Redistflow: m < 1";
  if n mod nprocs <> 0 then
    invalid_arg "Redistflow: nprocs must divide n"

let decls ~n ~nprocs ~m =
  let b = n / nprocs in
  [
    {
      arr_name = "A";
      layout = layout_before ~n ~m ~nprocs;
      (* one segment per outgoing piece: the planner's stage slices
         are whole segments, so [`Segment] granularity coincides with
         the pairwise pieces *)
      seg_shape = [ m; b; b ];
      universal = false;
    };
  ]

let build_info ~n ~nprocs ?(m = 2) ?(strategy = `Naive) () =
  check ~n ~nprocs ~m;
  let decls = decls ~n ~nprocs ~m in
  let body, info =
    Xdp.Redistribute.gen_info ~decls ~array:"A"
      ~new_layout:(layout_after ~n ~m ~nprocs)
      ~strategy ()
  in
  (Xdp.Build.program ~name:"redistflow" ~decls body, info)

let build ~n ~nprocs ?m ?strategy () =
  fst (build_info ~n ~nprocs ?m ?strategy ())

(* Distinct, exactly-representable value per index. *)
let init name idx =
  match (name, idx) with
  | "A", [ i; j; k ] -> float_of_int ((((i * 4096) + j) * 4096) + k)
  | _ -> 0.0

let reference ~n ?(m = 2) () =
  Xdp_util.Tensor.init [ m; n; n ] (fun idx -> init "A" idx)
