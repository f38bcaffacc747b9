(* Shared helpers for the benchmark harness.

   [run] executes a program for the experiment tables, verifies it
   against a reference and keeps its stats.  The rest is the one
   reporting path of the subsystem drivers (micro, net, exec, batch,
   nic, redist, search): each builds a [row list], [report] prints it
   as a table and writes it to BENCH_<id>.json, [check] raises on any
   failed tripwire, and [time_all] is the one wall-clock timer. *)

module Exec = Xdp_runtime.Exec
module Trace = Xdp_sim.Trace
module J = Xdp_util.Jsonw

type measured = {
  variant : string;
  stats : Trace.stats;
  verified : bool;
}

let verify ?(eps = 1e-9) r name reference =
  Xdp_util.Tensor.max_diff (Exec.array r name) reference < eps

let run ?(cost = Xdp_sim.Costmodel.message_passing) ?init ?free_on_release
    ~nprocs ~label ?check prog =
  let r = Exec.run ~cost ?init ?free_on_release ~nprocs prog in
  let verified =
    match check with
    | Some (name, reference) -> verify r name reference
    | None -> true
  in
  if not verified then
    Printf.printf "!! %s: VERIFICATION FAILED\n%!" label;
  (r, { variant = label; stats = r.stats; verified })

let speedup base row = base.stats.Trace.makespan /. row.stats.Trace.makespan

let metric_cells ?base row =
  let s = row.stats in
  [
    row.variant;
    Xdp_util.Table.cell_int s.Trace.messages;
    Xdp_util.Table.cell_int s.Trace.bytes;
    Xdp_util.Table.cell_int s.Trace.guard_evals;
    Xdp_util.Table.cell_float ~decimals:1 s.Trace.makespan;
    (match base with
    | Some b -> Xdp_util.Table.cell_ratio (speedup b row)
    | None -> "1.00x");
    Xdp_util.Table.cell_pct (Trace.idle_fraction s);
    (if row.verified then "yes" else "NO");
  ]

let metric_header =
  [ "variant"; "msgs"; "bytes"; "guards"; "makespan"; "speedup"; "idle"; "ok" ]

(* ---- the xdp-bench/1 row schema ---- *)

(* A row: its label, what was measured ([config]), the shared columns
   every driver reports the same way, then the driver's own keys. *)
type row = {
  label : string;
  config : (string * J.t) list;
  shared : (string * J.t) list;
  keys : (string * J.t) list;
}

(* The shared columns are [wall_s], [makespan], [messages], [bytes]
   and [identical]; each is null where the driver does not measure
   it.  The three simulated ones come from [stats] through the one
   stats field list. *)
let row ?(config = []) ?wall_s ?stats ?identical label keys =
  let opt f = Option.fold ~none:J.Null ~some:f in
  let stat name = opt (List.assoc name Trace.stats_fields) stats in
  {
    label;
    config;
    shared =
      [
        ("wall_s", opt (fun s -> J.Fixed (s, 6)) wall_s);
        ("makespan", stat "makespan");
        ("messages", stat "messages");
        ("bytes", stat "bytes");
        ("identical", opt (fun b -> J.Bool b) identical);
      ];
    keys;
  }

(* [stats] fields by name, as a row's own keys. *)
let stats_keys stats names =
  List.map (fun k -> (k, List.assoc k Trace.stats_fields stats)) names

let cells r = r.config @ r.shared @ r.keys
let nested = function J.Arr _ | J.Obj _ -> true | _ -> false

(* Table columns: every scalar key some row reports, in order of first
   appearance; nested values (histograms, blocker maps) are JSON-only. *)
let table ~title rows =
  let cols =
    List.fold_left
      (fun acc (k, v) ->
        if v = J.Null || nested v || List.mem k acc then acc else acc @ [ k ])
      [] (List.concat_map cells rows)
  in
  let cell r k =
    match List.assoc_opt k (cells r) with
    | None | Some J.Null -> "-"
    | Some (J.Bool b) -> if b then "yes" else "NO"
    | Some (J.Str s) -> s
    | Some (J.Float x) -> Printf.sprintf "%.1f" x
    | Some v -> J.to_string v
  in
  Xdp_util.Table.render ~title ~header:("label" :: cols)
    (List.map (fun r -> r.label :: List.map (cell r) cols) rows)

(* Print [rows] and write them to BENCH_<bench>.json in the working
   directory; [config] holds the settings shared by every row. *)
let report ~bench ~title ~smoke ?(config = []) rows =
  print_string (table ~title rows);
  let file = Printf.sprintf "BENCH_%s.json" bench in
  let oc = open_out file in
  J.to_channel ~indent:2 oc
    (J.Obj
       [
         ("schema", J.Str "xdp-bench/1");
         ("bench", J.Str bench);
         ("smoke", J.Bool smoke);
         ("config", J.Obj config);
         ( "rows",
           J.Arr
             (List.map
                (fun r ->
                  J.Obj
                    (("label", J.Str r.label)
                    :: ("config", J.Obj r.config)
                    :: (r.shared @ r.keys)))
                rows) );
       ]);
  close_out oc;
  Printf.printf "  wrote %s\n%!" file

(* Tripwires: [(holds, message)] pairs.  Fails listing every message
   whose condition does not hold, followed by the rows' table, so a CI
   log shows the whole picture rather than the first row that
   tripped. *)
let check ~bench rows tripwires =
  match
    List.filter_map (fun (ok, msg) -> if ok then None else Some msg) tripwires
  with
  | [] -> ()
  | failed ->
      failwith
        (String.concat "\n"
           ((bench ^ " bench tripwire failed:")
           :: List.map (( ^ ) "  - ") failed)
        ^ "\n" ^ table ~title:bench rows)

(* The one wall-clock timer.  Runs every thunk of [fs] once per round,
   in order, until each has run [runs] times and for [min_time]
   seconds in total; returns each one's last result with its best
   (minimum) time.  Running the sides of a comparison in alternation
   puts them under the same host load.  [gc] runs a full major
   collection before each timed run, so earlier garbage is not
   collected on its clock. *)
let time_all ?(min_time = 0.0) ?(runs = 1) ?(gc = false) fs =
  let timed f =
    if gc then Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rec rounds n acc =
    if n >= runs && List.for_all (fun (_, _, total) -> total >= min_time) acc
    then List.map (fun (r, best, _) -> (r, best)) acc
    else
      rounds (n + 1)
        (List.map2
           (fun (_, best, total) (r, t) -> (r, Float.min best t, total +. t))
           acc (List.map timed fs))
  in
  rounds 1
    (List.map
       (fun f ->
         let r, t = timed f in
         (r, t, t))
       fs)

let time ?min_time ?runs ?gc f = List.hd (time_all ?min_time ?runs ?gc [ f ])
