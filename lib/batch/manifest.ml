open Xdp_util

type spec = {
  app : string;
  stage : string;
  n : int;
  procs : int;
  sweeps : int;
  seg : int option;
  misaligned : bool;
  cost : string;
  engine : string option;
  drop : float;
  dup : float;
  jitter : float;
  fault_seed : int;
  timeout : float option;
  max_retries : int option;
  nic_arity : int;
  redist : string;
  redist_budget : int;
  placement : string;
  shard : string;
  wshard : string;
  layers : int;
  dim : int;
}

let default_spec =
  {
    app = "";
    stage = "";
    n = 16;
    procs = 4;
    sweeps = 4;
    seg = None;
    misaligned = false;
    cost = "message_passing";
    engine = None;
    drop = 0.0;
    dup = 0.0;
    jitter = 0.0;
    fault_seed = 1;
    timeout = None;
    max_retries = None;
    nic_arity = 4;
    redist = "naive";
    redist_budget = 0;
    placement = "naive";
    shard = "";
    wshard = "";
    layers = 4;
    dim = 8;
  }

type job = { id : int; label : string; spec : spec }

let label_of_spec s =
  let b = Buffer.create 64 in
  Printf.bprintf b "%s/%s n=%d p=%d" s.app s.stage s.n s.procs;
  if s.app = "jacobi" || s.app = "jacobi2d" then
    Printf.bprintf b " sweeps=%d" s.sweeps;
  (match s.seg with Some k -> Printf.bprintf b " seg=%d" k | None -> ());
  if s.misaligned then Buffer.add_string b " misaligned";
  Printf.bprintf b " cost=%s" s.cost;
  (match s.engine with Some e -> Printf.bprintf b " engine=%s" e | None -> ());
  if s.drop > 0.0 || s.dup > 0.0 || s.jitter > 0.0 then
    Printf.bprintf b " drop=%g dup=%g jitter=%g seed=%d" s.drop s.dup s.jitter
      s.fault_seed;
  (match s.timeout with Some t -> Printf.bprintf b " timeout=%g" t | None -> ());
  (match s.max_retries with
  | Some r -> Printf.bprintf b " retries=%d" r
  | None -> ());
  if s.stage = "nic" then Printf.bprintf b " arity=%d" s.nic_arity;
  if s.redist <> "naive" then (
    Printf.bprintf b " redist=%s" s.redist;
    if s.redist_budget > 0 then Printf.bprintf b " budget=%d" s.redist_budget);
  if s.app = "dlstack" then begin
    Printf.bprintf b " layers=%d dim=%d placement=%s" s.layers s.dim
      s.placement;
    if s.shard <> "" then Printf.bprintf b " shard=%s" s.shard;
    if s.wshard <> "" then Printf.bprintf b " wshard=%s" s.wshard
  end;
  Buffer.contents b

let jobs_of_specs specs =
  Array.of_list
    (List.mapi
       (fun id spec -> { id; label = label_of_spec spec; spec })
       specs)

(* ------------------------------------------------------------------ *)
(* Field decoding.  Every decoder gets a [where] context ("line 3" or
   "jobs[2]") so a type error always names its location. *)

exception Bad of string

let fail where fmt = Printf.ksprintf (fun s -> raise (Bad (where ^ ": " ^ s))) fmt

(* JSON allows repeated keys, but a manifest that repeats one is
   ambiguous, so every manifest object rejects them. *)
let no_duplicates where kvs =
  ignore
    (List.fold_left
       (fun seen (k, _) ->
         if List.mem k seen then fail where "duplicate field '%s'" k;
         k :: seen)
       [] kvs)

let known_fields =
  [
    "app"; "stage"; "n"; "procs"; "sweeps"; "seg"; "misaligned"; "cost";
    "engine"; "drop"; "dup"; "jitter"; "fault_seed"; "timeout"; "max_retries";
    "nic_arity"; "redist"; "redist_budget"; "placement"; "shard"; "wshard";
    "layers"; "dim";
  ]

(* Expand one field value into its axis of scalars: an array lists
   them, a {"from","count","step"} object ranges over ints, anything
   else is a single point. *)
let axis_of where field (v : Jsonw.t) : Jsonw.t list =
  match v with
  | Jsonw.Arr [] -> fail where "field '%s': empty array" field
  | Jsonw.Arr xs ->
      List.iter
        (function
          | Jsonw.Arr _ | Jsonw.Obj _ ->
              fail where "field '%s': arrays must hold scalars" field
          | _ -> ())
        xs;
      xs
  | Jsonw.Obj kvs ->
      no_duplicates (Printf.sprintf "%s: field '%s'" where field) kvs;
      let get k = List.assoc_opt k kvs in
      let int_of k =
        match get k with
        | Some (Jsonw.Int i) -> Some i
        | Some _ -> fail where "field '%s': range '%s' must be an integer" field k
        | None -> None
      in
      List.iter
        (fun (k, _) ->
          if not (List.mem k [ "from"; "count"; "step" ]) then
            fail where
              "field '%s': unknown range key '%s' (expected from/count/step)"
              field k)
        kvs;
      let from =
        match int_of "from" with
        | Some f -> f
        | None -> fail where "field '%s': range needs \"from\"" field
      in
      let count =
        match int_of "count" with
        | Some c when c > 0 -> c
        | Some _ -> fail where "field '%s': range \"count\" must be positive" field
        | None -> fail where "field '%s': range needs \"count\"" field
      in
      let step = Option.value ~default:1 (int_of "step") in
      List.init count (fun i -> Jsonw.Int (from + (i * step)))
  | v -> [ v ]

let as_int where field = function
  | Jsonw.Int i -> i
  | _ -> fail where "field '%s': expected an integer" field

let as_num where field = function
  | Jsonw.Int i -> float_of_int i
  | Jsonw.Float f -> f
  | _ -> fail where "field '%s': expected a number" field

let as_str where field = function
  | Jsonw.Str s -> s
  | _ -> fail where "field '%s': expected a string" field

let as_bool where field = function
  | Jsonw.Bool b -> b
  | _ -> fail where "field '%s': expected a boolean" field

let apply_field where spec field v =
  match field with
  | "app" -> { spec with app = as_str where field v }
  | "stage" -> { spec with stage = as_str where field v }
  | "n" -> { spec with n = as_int where field v }
  | "procs" -> { spec with procs = as_int where field v }
  | "sweeps" -> { spec with sweeps = as_int where field v }
  | "seg" -> (
      match v with
      | Jsonw.Null -> { spec with seg = None }
      | v -> { spec with seg = Some (as_int where field v) })
  | "misaligned" -> { spec with misaligned = as_bool where field v }
  | "cost" -> { spec with cost = as_str where field v }
  | "engine" -> (
      match v with
      | Jsonw.Null -> { spec with engine = None }
      | v -> { spec with engine = Some (as_str where field v) })
  | "drop" -> { spec with drop = as_num where field v }
  | "dup" -> { spec with dup = as_num where field v }
  | "jitter" -> { spec with jitter = as_num where field v }
  | "fault_seed" -> { spec with fault_seed = as_int where field v }
  | "timeout" -> (
      match v with
      | Jsonw.Null -> { spec with timeout = None }
      | v -> { spec with timeout = Some (as_num where field v) })
  | "max_retries" -> (
      match v with
      | Jsonw.Null -> { spec with max_retries = None }
      | v -> { spec with max_retries = Some (as_int where field v) })
  | "nic_arity" -> { spec with nic_arity = as_int where field v }
  | "redist" -> { spec with redist = as_str where field v }
  | "redist_budget" -> { spec with redist_budget = as_int where field v }
  | "placement" -> { spec with placement = as_str where field v }
  | "shard" -> { spec with shard = as_str where field v }
  | "wshard" -> { spec with wshard = as_str where field v }
  | "layers" -> { spec with layers = as_int where field v }
  | "dim" -> { spec with dim = as_int where field v }
  | f -> fail where "unknown field '%s' (known: %s)" f
           (String.concat ", " known_fields)

(* Structural sanity that needs no app knowledge; app/stage/cost names
   and the transport settings are the [check] callback's business
   (Workload.check_spec), which the CLI runs too. *)
let validate_ranges where (s : spec) =
  let prob name x =
    if x < 0.0 || x > 1.0 then
      fail where "field '%s': probability %g outside [0,1]" name x
  in
  if s.app = "" then fail where "field 'app' is required";
  if s.n < 1 then fail where "field 'n': must be >= 1 (got %d)" s.n;
  if s.procs < 1 then fail where "field 'procs': must be >= 1 (got %d)" s.procs;
  if s.sweeps < 0 then fail where "field 'sweeps': must be >= 0" ;
  prob "drop" s.drop;
  prob "dup" s.dup;
  if s.jitter < 0.0 then fail where "field 'jitter': must be >= 0";
  if s.nic_arity < 2 then
    fail where "field 'nic_arity': must be >= 2 (got %d)" s.nic_arity;
  if s.redist_budget < 0 then
    fail where "field 'redist_budget': must be >= 0 (got %d)" s.redist_budget;
  if s.layers < 1 then fail where "field 'layers': must be >= 1 (got %d)" s.layers;
  if s.dim < 1 then fail where "field 'dim': must be >= 1 (got %d)" s.dim;
  s

(* Cross-product expansion of one job object over its axes, canonical
   field order, later fields varying fastest. *)
let expand_entry where defaults (kvs : (string * Jsonw.t) list) : spec list =
  no_duplicates where kvs;
  List.iter
    (fun (k, _) ->
      if not (List.mem k known_fields) then
        fail where "unknown field '%s' (known: %s)" k
          (String.concat ", " known_fields))
    kvs;
  let ordered =
    List.filter_map
      (fun f -> Option.map (fun v -> (f, v)) (List.assoc_opt f kvs))
      known_fields
  in
  let specs =
    List.fold_left
      (fun specs (field, v) ->
        let axis = axis_of where field v in
        List.concat_map
          (fun spec ->
            List.map (fun pt -> apply_field where spec field pt) axis)
          specs)
      [ defaults ] ordered
  in
  List.map (validate_ranges where) specs

let job_obj where = function
  | Jsonw.Obj kvs -> kvs
  | _ -> fail where "expected a job object"

let run_check check where spec =
  match check spec with
  | Ok spec -> spec
  | Result.Error msg -> fail where "%s" msg

let parse ?(check = fun s -> Ok s) ~source text =
  let finish specs = Ok (jobs_of_specs specs) in
  let expand_jobs defaults jobs =
    List.concat
      (List.mapi
         (fun i j ->
           let where = Printf.sprintf "%s: jobs[%d]" source i in
           List.map (run_check check where) (expand_entry where defaults (job_obj where j)))
         jobs)
  in
  try
    (* JSONL heuristic: several lines that each parse as one value.  A
       whole-file parse is attempted first, so a pretty-printed JSON
       manifest (which spans lines) still reads as JSON. *)
    match Json.parse_result text with
    | Ok (Jsonw.Obj kvs) when List.mem_assoc "jobs" kvs ->
        no_duplicates source kvs;
        (match List.assoc_opt "schema" kvs with
        | Some (Jsonw.Str s) when s <> "xdp-batch/1" ->
            raise (Bad (Printf.sprintf "%s: unknown schema %S (expected xdp-batch/1)" source s))
        | Some (Jsonw.Str _) | None -> ()
        | Some _ -> raise (Bad (source ^ ": field 'schema': expected a string")));
        List.iter
          (fun (k, _) ->
            if not (List.mem k [ "schema"; "defaults"; "jobs" ]) then
              raise
                (Bad
                   (Printf.sprintf
                      "%s: unknown top-level field '%s' (known: schema, \
                       defaults, jobs)"
                      source k)))
          kvs;
        let defaults =
          match List.assoc_opt "defaults" kvs with
          | None -> default_spec
          | Some (Jsonw.Obj dkvs) ->
              no_duplicates (source ^ ": defaults") dkvs;
              List.fold_left
                (fun spec (k, v) ->
                  match axis_of (source ^ ": defaults") k v with
                  | [ pt ] -> apply_field (source ^ ": defaults") spec k pt
                  | _ ->
                      fail (source ^ ": defaults")
                        "field '%s': defaults must be scalars" k)
                default_spec dkvs
          | Some _ -> raise (Bad (source ^ ": field 'defaults': expected an object"))
        in
        let jobs =
          match List.assoc "jobs" kvs with
          | Jsonw.Arr jobs -> jobs
          | _ -> raise (Bad (source ^ ": field 'jobs': expected an array"))
        in
        finish (expand_jobs defaults jobs)
    | Ok (Jsonw.Arr jobs) -> finish (expand_jobs default_spec jobs)
    | Ok (Jsonw.Obj _ as j) ->
        (* single bare job object *)
        finish
          (List.map
             (run_check check source)
             (expand_entry source default_spec (job_obj source j)))
    | Ok _ ->
        Result.Error
          (source ^ ": manifest must be an object, an array of jobs, or JSONL")
    | Result.Error _ as whole_err -> (
        (* not one JSON value: try JSONL, line per job *)
        let lines =
          String.split_on_char '\n' text
          |> List.mapi (fun i l -> (i + 1, l))
          |> List.filter (fun (_, l) -> String.trim l <> "")
        in
        match lines with
        | [] | [ _ ] -> (
            match whole_err with
            | Result.Error e -> Result.Error (source ^ ": " ^ e)
            | Ok _ -> assert false)
        | lines ->
            finish
              (List.concat_map
                 (fun (lineno, line) ->
                   let where = Printf.sprintf "%s: line %d" source lineno in
                   match Json.parse_result line with
                   | Ok j ->
                       List.map (run_check check where)
                         (expand_entry where default_spec (job_obj where j))
                   | Result.Error e -> raise (Bad (where ^ ": " ^ e)))
                 lines))
  with Bad msg -> Result.Error msg

let parse_file ?check path =
  match open_in_bin path with
  | exception Sys_error e -> Result.Error e
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      parse ?check ~source:(Filename.basename path) text
