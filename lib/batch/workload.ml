type t = {
  prog : Xdp.Ir.program;
  init : string -> int list -> float;
  check : string;
  nic : (int * Xdp_nic.Prog.t) list;
  redist_stages : int;
}

(* (canonical_stage, aliases) per app; the first entry is the default
   stage when a spec leaves [stage] empty. *)
let stage_table =
  [
    ("vecadd", [ ("naive", []); ("elim", []); ("localized", []); ("bound", []) ]);
    ( "fft3d",
      [ ("baseline", []); ("localized", []); ("fused", []); ("pipelined", []) ]
    );
    ( "jacobi",
      [
        ("naive", []);
        ("elim", []);
        ("auto-halo", [ "auto" ]);
        ("halo", []);
      ] );
    ("jacobi2d", [ ("halo", []) ]);
    ("reduce", [ ("naive", []); ("partial", []); ("nic", [ "in-network" ]) ]);
    ("farm", [ ("static", []); ("dynamic", []) ]);
    ("redist", [ ("a2a", []) ]);
    ("dlstack", [ ("train", []) ]);
  ]

let known_apps = List.map fst stage_table

let stages_of app =
  match List.assoc_opt app stage_table with
  | None -> []
  | Some ss -> List.map fst ss

let canonical_stage app stage =
  match List.assoc_opt app stage_table with
  | None -> Error (Printf.sprintf "unknown app '%s' (known: %s)" app
                     (String.concat ", " known_apps))
  | Some stages ->
      if stage = "" then Ok (fst (List.hd stages))
      else (
        match
          List.find_opt
            (fun (canon, aliases) -> canon = stage || List.mem stage aliases)
            stages
        with
        | Some (canon, _) -> Ok canon
        | None ->
            Error
              (Printf.sprintf "app %s: unknown stage '%s' (known: %s)" app
                 stage
                 (String.concat ", " (List.map fst stages))))

let cost_of_string = function
  | "message_passing" | "mp" -> Ok Xdp_sim.Costmodel.message_passing
  | "shared_address" | "sa" -> Ok Xdp_sim.Costmodel.shared_address
  | "idealized" | "ideal" -> Ok Xdp_sim.Costmodel.idealized
  | "nic_compute" | "nic" -> Ok Xdp_sim.Costmodel.nic_compute
  | s ->
      Error
        (Printf.sprintf
           "unknown cost model '%s' (known: message_passing, shared_address, \
            idealized, nic_compute)"
           s)

let redist_of_string = function
  | "naive" -> Ok `Naive
  | "collectives" -> Ok `Collectives
  | s ->
      Error
        (Printf.sprintf
           "unknown redistribution strategy '%s' (accepted: naive, collectives)"
           s)

let placement_of_string = function
  | "naive" -> Ok `Naive
  | "hand" -> Ok `Hand
  | "search" -> Ok `Search
  | s ->
      Error
        (Printf.sprintf "unknown placement '%s' (accepted: naive, hand, search)"
           s)

let fault_plan (s : Manifest.spec) =
  if s.drop = 0.0 && s.dup = 0.0 && s.jitter = 0.0 then Xdp_net.Faultplan.none
  else
    Xdp_net.Faultplan.make ~seed:s.fault_seed ~drop:s.drop ~dup:s.dup
      ~jitter:s.jitter ()

let transport_config (s : Manifest.spec) =
  let c = Xdp_net.Transport.default_config in
  let c = match s.timeout with None -> c | Some timeout -> { c with timeout } in
  match s.max_retries with None -> c | Some max_retries -> { c with max_retries }

let dlstack_config (s : Manifest.spec) =
  {
    Xdp_search.Space.procs = s.procs;
    batch = s.n;
    dim = s.dim;
    nlayers = s.layers;
  }

(* Every check a dlstack placement can fail, in order: the placement
   name, the config, the no-override rule for [search], then override
   validation for the [naive]/[hand] anchors.  A [search] placement is
   returned unresolved, so validating a spec never runs the anneal. *)
let dlstack_choice (s : Manifest.spec) =
  let module Space = Xdp_search.Space in
  let cfg = dlstack_config s in
  match placement_of_string s.placement with
  | Error e -> Error e
  | Ok p -> (
      match Space.validate_config cfg with
      | Error e -> Error ("dlstack: " ^ e)
      | Ok () -> (
          match p with
          | `Search ->
              if s.shard <> "" || s.wshard <> "" then
                Error
                  "dlstack: shard/wshard overrides apply only to the naive \
                   and hand placements"
              else Ok `Search
          | (`Naive | `Hand) as base -> (
              let base_pl =
                match base with
                | `Naive -> Space.naive cfg
                | `Hand -> Space.hand cfg
              in
              let enum of_string v =
                if v = "" then Ok None
                else Result.map Option.some (of_string v)
              in
              match (enum Space.act_of_string s.shard,
                     enum Space.wgt_of_string s.wshard)
              with
              | Error e, _ | _, Error e -> Error ("dlstack: " ^ e)
              | Ok act, Ok wgt -> (
                  let pl =
                    Space.normalize
                      {
                        base_pl with
                        Space.layers =
                          Array.map
                            (fun (l : Space.layer_spec) ->
                              {
                                l with
                                Space.act = Option.value ~default:l.Space.act act;
                                wgt = Option.value ~default:l.Space.wgt wgt;
                              })
                            base_pl.Space.layers;
                      }
                  in
                  match Space.validate cfg pl with
                  | Ok () -> Ok (`Fixed pl)
                  | Error e -> Error ("dlstack: " ^ e)))))

let dlstack_placement (s : Manifest.spec) =
  match dlstack_choice s with
  | Error e -> Error e
  | Ok (`Fixed pl) -> Ok pl
  | Ok `Search ->
      let module Anneal = Xdp_search.Anneal in
      Ok (Anneal.search (dlstack_config s) Anneal.default_options).Anneal.best

(* Canonicalize the dlstack sharding enums (aliases like "replicate")
   and run every placement check, so a bad spec fails at parse time
   with the job named, not at build time. *)
let check_dlstack (s : Manifest.spec) =
  let module Space = Xdp_search.Space in
  if s.app <> "dlstack" then Ok s
  else
    match dlstack_choice s with
    | Error e -> Error e
    | Ok _ ->
        let canon of_string name v =
          if v = "" then ""
          else match of_string v with Ok x -> name x | Error _ -> v
        in
        Ok
          {
            s with
            shard = canon Space.act_of_string Space.act_name s.shard;
            wshard = canon Space.wgt_of_string Space.wgt_name s.wshard;
          }

let check_spec (s : Manifest.spec) =
  match (s.timeout, s.max_retries, canonical_stage s.app s.stage) with
  | Some t, _, _ when t <= 0.0 -> Error "field 'timeout': must be > 0"
  | _, Some r, _ when r < 0 -> Error "field 'max_retries': must be >= 0"
  | _, _, Error e -> Error e
  | _, _, Ok stage -> (
      match redist_of_string s.redist with
      | Error e -> Error e
      | Ok _ -> (
      match cost_of_string s.cost with
      | Error e -> Error e
      | Ok cm -> (
          match s.engine with
          | None ->
              check_dlstack { s with stage; cost = cm.Xdp_sim.Costmodel.name }
          | Some e -> (
              match Xdp_runtime.Exec.engine_of_string e with
              | Error err -> Error err
              | Ok eng ->
                  check_dlstack
                    {
                      s with
                      stage;
                      cost = cm.Xdp_sim.Costmodel.name;
                      engine = Some (Xdp_runtime.Exec.engine_name eng);
                    }))))

(* squarest grid whose product is nprocs (jacobi2d's processor mesh) *)
let squarest nprocs =
  let rec best r = if nprocs mod r = 0 then r else best (r - 1) in
  let pr = best (int_of_float (sqrt (float_of_int nprocs))) in
  (pr, nprocs / pr)

let build (s : Manifest.spec) : t =
  let nprocs = s.procs and n = s.n in
  let stage =
    match canonical_stage s.app s.stage with
    | Ok st -> st
    | Error e -> failwith e
  in
  match s.app with
  | "vecadd" ->
      let dist_b =
        if s.misaligned then Xdp_dist.Dist.Cyclic else Xdp_dist.Dist.Block
      in
      let stage =
        match stage with
        | "naive" -> Xdp_apps.Vecadd.Naive
        | "elim" -> Xdp_apps.Vecadd.Elim
        | "localized" -> Xdp_apps.Vecadd.Localized
        | "bound" -> Xdp_apps.Vecadd.Bound
        | st -> failwith ("vecadd: unknown stage " ^ st)
      in
      {
        prog = Xdp_apps.Vecadd.build ~n ~nprocs ~dist_b ~stage ();
        init = Xdp_apps.Vecadd.init;
        check = "A";
        nic = [];
        redist_stages = 0;
      }
  | "fft3d" ->
      let stage =
        match stage with
        | "baseline" -> Xdp_apps.Fft3d.Baseline
        | "localized" -> Xdp_apps.Fft3d.Localized
        | "fused" -> Xdp_apps.Fft3d.Fused
        | "pipelined" -> Xdp_apps.Fft3d.Pipelined
        | st -> failwith ("fft3d: unknown stage " ^ st)
      in
      {
        prog = Xdp_apps.Fft3d.build ~n ~nprocs ?seg_rows:s.seg ~stage ();
        init = Xdp_apps.Fft3d.init;
        check = "A";
        nic = [];
        redist_stages = 0;
      }
  | "jacobi" ->
      let stage =
        match stage with
        | "naive" -> Xdp_apps.Jacobi.Naive
        | "elim" -> Xdp_apps.Jacobi.Elim
        | "auto-halo" -> Xdp_apps.Jacobi.Auto_halo
        | "halo" -> Xdp_apps.Jacobi.Halo
        | st -> failwith ("jacobi: unknown stage " ^ st)
      in
      {
        prog = Xdp_apps.Jacobi.build ~n ~nprocs ~sweeps:s.sweeps ~stage ();
        init = Xdp_apps.Jacobi.init;
        check = "A";
        nic = [];
        redist_stages = 0;
      }
  | "jacobi2d" ->
      let pr, pc = squarest nprocs in
      {
        prog =
          Xdp_apps.Jacobi2d.build ~n ~pr ~pc ~sweeps:s.sweeps
            ~stage:Xdp_apps.Jacobi2d.Halo ();
        init = Xdp_apps.Jacobi2d.init;
        check = "A";
        nic = [];
        redist_stages = 0;
      }
  | "reduce" ->
      let stage, nic =
        match stage with
        | "naive" -> (Xdp_apps.Reduce.Naive, [])
        | "partial" -> (Xdp_apps.Reduce.Partial, [])
        | "nic" ->
            ( Xdp_apps.Reduce.Nic s.nic_arity,
              Xdp_apps.Reduce.nic_spec ~nprocs ~arity:s.nic_arity )
        | st -> failwith ("reduce: unknown stage " ^ st)
      in
      {
        prog = Xdp_apps.Reduce.build ~n ~nprocs ~stage ();
        init = Xdp_apps.Reduce.init;
        check = "OUT";
        nic;
        redist_stages = 0;
      }
  | "farm" ->
      let variant =
        match stage with
        | "static" -> Xdp_apps.Farm.Static
        | "dynamic" -> Xdp_apps.Farm.Dynamic
        | st -> failwith ("farm: unknown variant " ^ st)
      in
      {
        prog = Xdp_apps.Farm.build ~ntasks:n ~nprocs ~variant ();
        init =
          Xdp_apps.Farm.init ~base:20000.0 ~skew:Xdp_apps.Farm.Front_loaded
            ~ntasks:n;
        check = "ACC";
        nic = [];
        redist_stages = 0;
      }
  | "redist" ->
      let strategy =
        match s.redist with
        | "naive" -> `Naive
        | "collectives" ->
            `Collectives { Xdp.Plan_redist.peak_budget = s.redist_budget }
        | r -> failwith ("redist: unknown strategy " ^ r)
      in
      let prog, info =
        Xdp_apps.Redistflow.build_info ~n ~nprocs ~strategy ()
      in
      {
        prog;
        init = Xdp_apps.Redistflow.init;
        check = "A";
        nic = [];
        redist_stages =
          (match info with Some i -> i.Xdp.Plan_redist.stages | None -> 0);
      }
  | "dlstack" ->
      let cfg = dlstack_config s in
      let pl =
        match dlstack_placement s with
        | Ok pl -> pl
        | Error e -> failwith e
      in
      {
        prog = Xdp_apps.Dlstack.build cfg pl;
        init = Xdp_apps.Dlstack.init;
        check = "OUT";
        nic = [];
        redist_stages = 0;
      }
  | app ->
      failwith
        ("unknown app " ^ app ^ " (known: " ^ String.concat ", " known_apps ^ ")")
