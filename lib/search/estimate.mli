(** Shared communication-volume accounting for placement search.

    The placement estimator ({!Space.estimate}), the search loop
    ({!Anneal.search}) and the benchmarks all count endpoint messages
    and wire bytes through this one module, so the byte math exists in
    exactly one place and always matches what the simulator's message
    board charges: a matched value send costs
    [payload elements * elem_bytes] wire bytes, plus [header_bytes]
    only when undirected — directed sends are bound at compile time,
    so no name tag travels (the board charges them no header, and
    every message a placement elaborates to is directed).  The
    constants are read from the simulator's own
    {!Xdp_sim.Costmodel.t}; placement search prices on
    [Costmodel.message_passing].

    All totals are overflow-checked in the
    {!Xdp_dist.Redistribution.checked_add} style: counting past
    [max_int] raises [Invalid_argument] naming the quantity instead of
    silently wrapping — placements are scored at P in the thousands
    where naive byte products approach the 2^61 boundary. *)

(** A communication total: endpoint messages, payload elements and
    wire bytes (payload + per-message headers). *)
type t = { msgs : int; payload_elems : int; wire_bytes : int }

val zero : t

(** Overflow-checked sum. *)
val add : t -> t -> t

(** [scale k t] — [k] repetitions of [t]; overflow-checked. *)
val scale : int -> t -> t

(** [messages cm ~count ~elems] — [count] messages of [elems] payload
    elements each under cost model [cm]; [directed] (default [true])
    controls whether the per-message header travels.
    @raise Invalid_argument on negative inputs or overflow. *)
val messages :
  ?directed:bool -> Xdp_sim.Costmodel.t -> count:int -> elems:int -> t

(** Coarse alpha-beta transfer time of a total, serialized:
    [msgs * (send_init + recv_init + alpha) + wire_bytes * beta]. *)
val transfer_time : Xdp_sim.Costmodel.t -> t -> float
