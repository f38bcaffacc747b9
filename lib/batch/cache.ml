module Precompile = Xdp_runtime.Precompile

let digest ~cost ~fuse ~scalars p =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Xdp.Pp.program_to_string p);
  Buffer.add_char b '\x00';
  (* No_sharing: the bytes depend only on structure, so two
     separately-built equal values produce one key *)
  Buffer.add_string b (Marshal.to_string (cost, fuse, scalars) [ Marshal.No_sharing ]);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The spec with its run-only fields reset to the defaults: what
   [Workload.build] can see.  Record update, so a new spec field stays
   in the key unless it is named here. *)
let key (s : Manifest.spec) =
  let d = Manifest.default_spec in
  {
    s with
    engine = d.engine;
    drop = d.drop;
    dup = d.dup;
    jitter = d.jitter;
    fault_seed = d.fault_seed;
    timeout = d.timeout;
    max_retries = d.max_retries;
  }

(* Every float field of a spec is run-only, so keys compare without
   NaN surprises; the hash looks deeper than the default so fields
   late in the record (nic_arity, redist, placement) separate keys. *)
module Tbl = Hashtbl.Make (struct
  type t = Manifest.spec

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 128
end)

type entry = {
  workload : Workload.t;
  cost : Xdp_sim.Costmodel.t;
  ir_digest : string;
  mutable cprog : Precompile.cprog option;
}

type t = {
  tbl : entry Tbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable compile_s : float;
}

let create () = { tbl = Tbl.create 16; hits = 0; misses = 0; compile_s = 0.0 }

let find t spec =
  let k = key spec in
  match Tbl.find_opt t.tbl k with
  | Some e -> e
  | None ->
      let cost =
        match Workload.cost_of_string spec.cost with
        | Ok c -> c
        | Error msg -> failwith msg
      in
      let workload = Workload.build spec in
      let ir_digest =
        digest ~cost ~fuse:Precompile.fuse_default ~scalars:[] workload.prog
      in
      let e = { workload; cost; ir_digest; cprog = None } in
      Tbl.add t.tbl k e;
      e

let workload e = e.workload
let cost e = e.cost
let ir_digest e = e.ir_digest

let staged t e =
  match e.cprog with
  | Some cp ->
      t.hits <- t.hits + 1;
      cp
  | None ->
      let t0 = Unix.gettimeofday () in
      let cp =
        Precompile.compile ~cost:e.cost ~kernels:Xdp.Kernels.default
          ~scalars:[] e.workload.prog
      in
      t.compile_s <- t.compile_s +. (Unix.gettimeofday () -. t0);
      t.misses <- t.misses + 1;
      e.cprog <- Some cp;
      cp

let hits t = t.hits
let misses t = t.misses
let compile_seconds t = t.compile_s
let size t = Tbl.length t.tbl
