open Xdp_dist

type t = { msgs : int; payload_elems : int; wire_bytes : int }

let zero = { msgs = 0; payload_elems = 0; wire_bytes = 0 }
let cadd = Redistribution.checked_add
let cmul = Redistribution.checked_mul

let add a b =
  {
    msgs = cadd "estimate messages" a.msgs b.msgs;
    payload_elems = cadd "estimate payload elements" a.payload_elems b.payload_elems;
    wire_bytes = cadd "estimate wire bytes" a.wire_bytes b.wire_bytes;
  }

let scale k t =
  if k < 0 then invalid_arg "Estimate.scale: negative factor";
  {
    msgs = cmul "estimate messages" k t.msgs;
    payload_elems = cmul "estimate payload elements" k t.payload_elems;
    wire_bytes = cmul "estimate wire bytes" k t.wire_bytes;
  }

let messages ?(directed = true) (cm : Xdp_sim.Costmodel.t) ~count ~elems =
  if count < 0 || elems < 0 then
    invalid_arg "Estimate.messages: negative count or payload";
  let payload = cmul "estimate payload elements" count elems in
  let payload_bytes = cmul "estimate wire bytes" payload cm.elem_bytes in
  (* directed sends are bound at compile time: no name tag travels,
     so the board charges no header (the exactness contract with the
     executed Stats of all-directed elaborations hangs on this) *)
  let header_bytes =
    if directed then 0 else cmul "estimate wire bytes" count cm.header_bytes
  in
  {
    msgs = count;
    payload_elems = payload;
    wire_bytes = cadd "estimate wire bytes" payload_bytes header_bytes;
  }

let transfer_time (cm : Xdp_sim.Costmodel.t) t =
  (float_of_int t.msgs
  *. (cm.time_send_init +. cm.time_recv_init +. cm.alpha))
  +. (float_of_int t.wire_bytes *. cm.beta)
