(* In-memory span recorder for the traced run.

   A span is one call the benchmark makes into a layer of the repo:
   its name, the layer it belongs to, monotonic start and end, the
   enclosing span and the iteration it ran in.  Spans stay in memory
   and are written out once, as Chrome trace-event JSON, when the run
   ends.  The untraced run passes [None] everywhere, so a disabled
   tracer costs one match per call. *)

module J = Xdp_util.Jsonw

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  iter : int;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable iter : int;
  epoch : float;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let create () = { spans = []; next = 0; stack = []; iter = 0; epoch = now () }
let set_iter t i = t.iter <- i
let parent t = match t.stack with p :: _ -> p | [] -> -1

let add t ~layer ~t0 ~t1 name =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; layer; parent = parent t; iter = t.iter; t0; t1 } :: t.spans

(* [wrap tr ~layer name f] runs [f ()] inside a span when tracing. *)
let wrap tr ~layer name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id = t.next in
      t.next <- id + 1;
      let parent = parent t in
      t.stack <- id :: t.stack;
      let t0 = now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          t.stack <- List.tl t.stack;
          t.spans <- { id; name; layer; parent; iter = t.iter; t0; t1 } :: t.spans)

let spans t = List.rev t.spans
let dur s = s.t1 -. s.t0

(* Self time of every span: its duration minus the durations of its
   direct children (children never outlive their parent). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    (spans t)

(* Chrome trace-event JSON (complete "X" events, microseconds since
   the recorder was created), loadable in chrome://tracing and
   Perfetto. *)
let to_json t =
  let us x = J.Fixed ((x -. t.epoch) *. 1e6, 3) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str s.layer);
        ("ph", J.Str "X");
        ("ts", us s.t0);
        ("dur", J.Fixed (dur s *. 1e6, 3));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ( "args",
          J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("iter", J.Int s.iter) ] );
      ]
  in
  J.Obj [ ("traceEvents", J.Arr (List.map event (spans t))); ("displayTimeUnit", J.Str "ms") ]

let write t path =
  let oc = open_out path in
  Fun.protect
    (fun () -> J.to_channel oc (to_json t))
    ~finally:(fun () -> close_out oc)
