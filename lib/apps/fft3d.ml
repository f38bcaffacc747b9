open Xdp.Ir
open Xdp.Build

type stage = Baseline | Localized | Fused | Pipelined

let stage_name = function
  | Baseline -> "baseline"
  | Localized -> "localized"
  | Fused -> "fused"
  | Pipelined -> "pipelined"

let all_stages = [ Baseline; Localized; Fused; Pipelined ]

let is_pow2 n = n > 0 && n land (n - 1) = 0

let layout_before ~n ~nprocs =
  Xdp_dist.Layout.make ~shape:[ n; n; n ]
    ~dist:[ Xdp_dist.Dist.Star; Xdp_dist.Dist.Star; Xdp_dist.Dist.Block ]
    ~grid:(Xdp_dist.Grid.linear nprocs)

let layout_after ~n ~nprocs =
  Xdp_dist.Layout.make ~shape:[ n; n; n ]
    ~dist:[ Xdp_dist.Dist.Star; Xdp_dist.Dist.Block; Xdp_dist.Dist.Star ]
    ~grid:(Xdp_dist.Grid.linear nprocs)

let check ~n ~nprocs ~seg_rows =
  if not (is_pow2 n) then invalid_arg "Fft3d: n must be a power of two";
  if n mod nprocs <> 0 then invalid_arg "Fft3d: nprocs must divide n";
  if n mod seg_rows <> 0 then invalid_arg "Fft3d: seg_rows must divide n"

let decls ~n ~nprocs ~seg_rows =
  [
    {
      arr_name = "A";
      layout = layout_before ~n ~nprocs;
      seg_shape = [ seg_rows; 1; 1 ];
      universal = false;
    };
  ]

let fft s = apply "fft1D" [ s ]

(* Row pieces along dimension 1 at segment granularity [c]. *)
let row_pieces ~n ~c mk =
  if c = n then [ mk all ]
  else
    [
      loop "r" (i 1)
        (i (n / c))
        [ mk (slice (((var "r" -: i 1) *: i c) +: i 1) (var "r" *: i c)) ];
    ]

(* The dim-3 block of processor expression [pv] (1-based). *)
let blk ~b pv = if b = 1 then at pv else slice (((pv -: i 1) *: i b) +: i 1) (pv *: i b)

let baseline_body ~n ~nprocs ~seg_rows =
  let b = n / nprocs in
  let c = seg_rows in
  let k = var "k" and j = var "j" and p = var "p" and q = var "q" in
  let loop1 =
    loop "k" (i 1) (i n)
      [
        iown (sec "A" [ all; all; at k ])
        @: [ loop "i" (i 1) (i n) [ fft (sec "A" [ at (var "i"); all; at k ]) ] ];
      ]
  in
  let loop2 =
    loop "k" (i 1) (i n)
      [
        iown (sec "A" [ all; all; at k ])
        @: [ loop "j" (i 1) (i n) [ fft (sec "A" [ all; at j; at k ]) ] ];
      ]
  in
  let sends =
    loop "j" (i 1) (i n)
      (row_pieces ~n ~c (fun rows ->
           send_owner_value (sec "A" [ rows; at j; blk ~b p ])))
  in
  let recvs =
    loop "j"
      (((p -: i 1) *: i b) +: i 1)
      (p *: i b)
      [
        loop "q" (i 1) (i nprocs)
          (row_pieces ~n ~c (fun rows ->
               recv_owner_value (sec "A" [ rows; at j; blk ~b q ])));
      ]
  in
  let loop3 =
    loop "p" (i 1) (i nprocs)
      [ iown (sec "A" [ all; all; blk ~b p ]) @: [ sends; recvs ] ]
  in
  let loop4 =
    loop "j" (i 1) (i n)
      [
        await (sec "A" [ all; at j; all ])
        @: [ loop "i" (i 1) (i n) [ fft (sec "A" [ at (var "i"); at j; all ]) ] ];
      ]
  in
  ([ loop1; loop2; loop3 ], [ loop4 ])

let build ~n ~nprocs ?seg_rows ~stage () =
  let seg_rows = Option.value seg_rows ~default:n in
  check ~n ~nprocs ~seg_rows;
  let ds = decls ~n ~nprocs ~seg_rows in
  let pre, post = baseline_body ~n ~nprocs ~seg_rows in
  let updated =
    Xdp.Redistribute.updated_decls ~decls:ds ~array:"A"
      ~new_layout:(layout_after ~n ~nprocs)
  in
  let name s = Printf.sprintf "fft3d-%s" (stage_name s) in
  match stage with
  | Baseline ->
      Xdp.Simplify.program (program ~name:(name Baseline) ~decls:ds (pre @ post))
  | Localized | Fused | Pipelined ->
      let localized =
        program ~name:(name stage) ~decls:ds
          (Xdp.Localize.run_stmts ~decls:ds pre
          @ Xdp.Localize.run_stmts ~decls:updated post)
      in
      (match stage with
      | Fused -> Xdp.Fuse.run localized
      | Pipelined -> Xdp.Sink_await.run (Xdp.Fuse.run localized)
      | _ -> localized)

let sequential ~n ~nprocs =
  let ds = decls ~n ~nprocs ~seg_rows:n in
  let k = var "k" and j = var "j" and iv = var "i" in
  program ~name:"fft3d-sequential" ~decls:ds
    [
      loop "k" (i 1) (i n)
        [ loop "i" (i 1) (i n) [ fft (sec "A" [ at iv; all; at k ]) ] ];
      loop "k" (i 1) (i n)
        [ loop "j" (i 1) (i n) [ fft (sec "A" [ all; at j; at k ]) ] ];
      loop "j" (i 1) (i n)
        [ loop "i" (i 1) (i n) [ fft (sec "A" [ at iv; at j; all ]) ] ];
    ]

let init name idx =
  match (name, idx) with
  | "A", [ x; y; z ] ->
      sin (float_of_int ((x * 17) + (y * 5) + z))
      +. (0.01 *. float_of_int ((x + y + z) mod 7))
  | _ -> 0.0
