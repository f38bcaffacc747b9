(* The campaign workload's manifest, generated from the benchmark seed.

   24 small programs spanning every batch app family, each repeated
   over [repeats] fault seeds the way sweeps repeat a program.  The
   seed draws the fault seeds; the program mix, sizes and order are
   fixed, so the campaign's totals and the pool's load balance stay
   comparable across seeds while fault outcomes vary.  The service
   receives only the manifest text. *)

module J = Xdp_util.Jsonw
module Prng = Xdp_util.Prng

let fault = [ ("drop", J.Float 0.15); ("dup", J.Float 0.05); ("jitter", J.Float 0.2) ]

let programs : (string * J.t) list list =
  let app a rest = ("app", J.Str a) :: rest in
  let stage s = ("stage", J.Str s) in
  let int k v = (k, J.Int v) in
  List.map (fun s -> app "vecadd" [ stage s; int "n" 64 ]) [ "naive"; "elim"; "localized"; "bound" ]
  @ List.map
      (fun s -> app "jacobi" [ stage s; int "n" 64; int "sweeps" 4 ])
      [ "naive"; "elim"; "auto-halo"; "halo" ]
  @ List.map (fun n -> app "jacobi2d" [ int "n" n; int "sweeps" 2 ]) [ 16; 24; 32 ]
  @ List.map (fun n -> app "fft3d" ([ stage "pipelined"; int "n" n ] @ fault)) [ 4; 8 ]
  @ List.map (fun s -> app "reduce" [ stage s; int "n" 32 ]) [ "naive"; "partial" ]
  @ List.map (fun k -> app "reduce" [ stage "nic"; int "n" 32; int "nic_arity" k ]) [ 2; 3 ]
  @ [
      app "redist" [ int "n" 16; int "procs" 8; ("redist", J.Str "naive") ];
      app "redist"
        [ int "n" 16; int "procs" 8; ("redist", J.Str "collectives"); int "redist_budget" 600 ];
    ]
  @ List.map
      (fun p -> app "dlstack" [ int "n" 32; int "dim" 8; int "layers" 3; ("placement", J.Str p) ])
      [ "naive"; "hand"; "search" ]
  @ List.map (fun s -> app "farm" [ stage s; int "n" 24 ]) [ "static"; "dynamic" ]

(* [manifest ~seed ~repeats] — the manifest text: [24 * repeats] jobs. *)
let manifest ~seed ~repeats =
  let rng = Prng.of_seed seed in
  let seeds = List.init repeats (fun _ -> J.Int (1 + Prng.int rng 1_000_000)) in
  let jobs =
    List.map (fun p -> J.Obj (p @ [ ("fault_seed", J.Arr seeds) ])) programs
  in
  J.to_string ~indent:2
    (J.Obj
       [
         ("schema", J.Str "xdp-batch/1");
         ("defaults", J.Obj [ ("procs", J.Int 4); ("cost", J.Str "message_passing") ]);
         ("jobs", J.Arr jobs);
       ])
