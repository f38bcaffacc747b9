(* The one reporting path of the benchmark harness.  Every driver (the
   paper's figures and experiments, micro, net, exec, batch, nic,
   redist, search) builds a [row list]: [report] prints it as a table
   and writes it to BENCH_<id>.json, [check] raises on any failed
   tripwire, and [time_all] is the one wall-clock timer. *)

module Trace = Xdp_sim.Trace
module J = Xdp_util.Jsonw

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

(* One table per run of consecutive rows with the same config and own
   key names.  Its columns: every scalar key some row of it reports, in
   order of first appearance; nested values (histograms, blocker maps)
   are JSON-only. *)
let table ~title rows =
  let names r = List.map fst (r.config @ r.keys) in
  let block rows =
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
    ("label" :: cols, List.map (fun r -> r.label :: List.map (cell r) cols) rows)
  in
  List.fold_left
    (fun acc r ->
      match acc with
      | (k, b) :: rest when k = names r -> (k, r :: b) :: rest
      | _ -> (names r, [ r ]) :: acc)
    [] rows
  |> List.rev_map (fun (_, b) -> block (List.rev b))
  |> List.mapi (fun i (header, body) ->
         Xdp_util.Table.render ~title:(if i = 0 then title else "") ~header
           body)
  |> String.concat ""

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
