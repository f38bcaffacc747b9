(** The per-processor run-time XDP symbol table (paper §3.1, Figure 2).

    One table lives on each virtual processor.  In contrast to a
    regular compiler symbol table it only tracks {e exclusive}
    sections: for each declared array it holds the partitioning
    metadata and an array of segment descriptors recording, per
    segment, the global footprint (lbound/ubound/stride, here a
    {!Xdp_util.Box.t}) and the current state (unowned / transitional /
    accessible).  Local segment storage is managed here too, so the
    paper's storage-reuse claim (free a chunk when its ownership is
    sent away, §2.6) is directly measurable.

    All intrinsic predicates ([iown], [accessible], [await]'s
    unblocking condition, [mylb]/[myub]) are lookups into this table,
    implemented with the paper's intersect-and-union algorithm.

    The simulated cost of a covering query ({!iown} or {!accessible};
    {!section_state} makes one, and a second unless the section is
    unowned) is the paper's linear scan: {!live_count} descriptor
    visits.  The host
    cost is lower: a spatial bucket index limits the scan to the
    descriptors near the queried box, and a dense query allocates
    nothing. *)

open Xdp_util

type seg = {
  seg_id : int;
  seg_box : Box.t;
  mutable status : State.t;
  mutable data : float array option;
      (** allocated chunk; [None] when unowned and freed *)
}

type t

(** [create ~pid ?(free_on_release=true) ()] — empty table for
    processor [pid].  When [free_on_release] is false, chunks whose
    ownership is sent away are kept allocated (the no-storage-reuse
    baseline of experiment T6). *)
val create : pid:int -> ?free_on_release:bool -> unit -> t

val pid : t -> int

(** [declare t ~name ~layout ~seg_shape] — add an array: the segments
    of this processor's partition under [layout], tiled by
    [seg_shape], all [Accessible] with zero-filled storage.
    @raise Invalid_argument if [name] is already declared. *)
val declare :
  t -> name:string -> layout:Xdp_dist.Layout.t -> seg_shape:int list -> unit

(** [declare_universal t ~name ~shape] — a universally owned array
    (paper §2.1): this processor holds a full private copy as a single
    always-accessible segment.  [iown]/[accessible] are always true for
    it; transfer transitions ({!mark_recv_init}, {!release},
    {!expect_ownership}) reject it — the run-time symbol table of the
    paper "need not contain entries for universally owned variables"
    beyond plain storage. *)
val declare_universal : t -> name:string -> shape:int list -> unit

(** Was the array declared universal? *)
val universal : t -> string -> bool

val declared : t -> string -> bool

(** Arrays in declaration order. *)
val names : t -> string list

val global_shape : t -> string -> int list
val seg_shape : t -> string -> int list

(** All segment descriptors of an array, in id order (including
    unowned ones, which remain listed with status [Unowned] — the
    paper updates descriptors rather than deleting them). *)
val segments : t -> string -> seg list

(** Segments whose box intersects [box]. *)
val segments_covering : t -> string -> Box.t -> seg list

(** {1 Intrinsics (paper Figure 1)} *)

(** [iown t name box] — true iff every element of [box] lies in a
    segment that is owned (accessible or transitional). *)
val iown : t -> string -> Box.t -> bool

(** [accessible t name box] — true iff every element lies in an
    [Accessible] segment. *)
val accessible : t -> string -> Box.t -> bool

(** Aggregate state of a section: [Unowned] if any element is
    unowned; else [Transitional] if any intersecting segment is;
    else [Accessible]. *)
val section_state : t -> string -> Box.t -> State.t

(** [mylb t name box d] / [myub t name box d] — smallest / largest
    owned index of [box] in dimension [d]; [None] when no element is
    owned (the paper returns MAXINT / MININT; the IL evaluator maps
    [None] accordingly). *)
val mylb : t -> string -> Box.t -> int -> int option

val myub : t -> string -> Box.t -> int -> int option

(** {1 State transitions} *)

(** [mark_recv_init t name box] — a value receive into [box] was
    initiated: every owned segment intersecting [box] becomes
    [Transitional].  @raise Invalid_argument if [box] is not fully
    owned (receives require an exclusively owned left-hand side). *)
val mark_recv_init : t -> string -> Box.t -> unit

(** [mark_recv_complete t name box] — the receive completed: the
    segments intersecting [box] return to [Accessible]. *)
val mark_recv_complete : t -> string -> Box.t -> unit

(** [release t name box] — ownership of [box] is sent away.  [box]
    must be exactly the union of whole owned segments (ownership moves
    at segment granularity, §3.1); their payloads are extracted and
    returned (in box row-major order per segment), the segments become
    [Unowned], and their chunks are freed when [free_on_release].
    @raise Invalid_argument if the cover is not exact or a segment is
    not accessible. *)
val release : t -> string -> Box.t -> (Box.t * float array) list

(** [expect_ownership t name box] — an ownership receive for [box] was
    initiated: a fresh [Transitional] segment (without storage) is
    recorded.  @raise Invalid_argument if any element of [box] is
    already owned. *)
val expect_ownership : t -> string -> Box.t -> unit

(** [accept_ownership t name box payload] — the ownership(+value)
    transfer for [box] completed: storage is allocated, [payload] (if
    any) unpacked, and the segment becomes [Accessible]. *)
val accept_ownership : t -> string -> Box.t -> float array option -> unit

(** {1 Data access} *)

(** [get t name idx] / [set t name idx v] — element access in owned
    storage.  Access to an element whose segment has no storage
    raises; access to a [Transitional] segment is permitted and yields
    whatever bytes are present (XDP performs no run-time checks on
    ordinary access). *)
val get : t -> string -> int list -> float

val set : t -> string -> int list -> float -> unit

(** Array-indexed variants of {!get}/{!set}: allocation-free, same
    diagnostics. *)
val get_a : t -> string -> int array -> float

val set_a : t -> string -> int array -> float -> unit

(** [owned_element t name idx] — is the single element [idx] owned
    (accessible or transitional)?  Equivalent to
    [iown t name (Box.point idx)] without building the point box, and
    counts no {!descriptor_visits}. *)
val owned_element : t -> string -> int array -> bool

(** [elem_seg t name idx] — the segment whose storage backs element
    [idx], if any.  Live segments are pairwise disjoint, so the result
    is unique; callers may cache it against {!generation}. *)
val elem_seg : t -> string -> int array -> seg option

(** Monotone counter bumped on every placement or storage transition
    ({!release}, {!expect_ownership}, {!accept_ownership},
    {!mark_recv_init}, {!mark_recv_complete}).  While it is unchanged,
    per-element segment lookups ({!elem_seg}) remain valid — the
    staged executor's inline caches key on it. *)
val generation : t -> int

(** [read_box t name box] — pack a fully-owned section (row-major box
    order) into a buffer; [write_box] unpacks. *)
val read_box : t -> string -> Box.t -> float array

val write_box : t -> string -> Box.t -> float array -> unit

val iter_pieces :
  t ->
  string ->
  Box.t ->
  (float array ->
  Box.t ->
  seg:seg ->
  seg_view:int * int array ->
  box_view:int * int array ->
  unit) ->
  unit
(** [iter_pieces t name box f] — call [f data piece ~seg ~seg_view
    ~box_view] for every non-empty intersection [piece] of [box] with a
    live backed segment, in segment-id order.  [seg_view]/[box_view]
    are the affine maps of [piece] into the segment chunk and into the
    row-major box buffer ({!Box.affine_in}).  This is the
    decomposition underlying {!read_box}/{!write_box}; the staged
    engine uses it to memoize marshalling plans against
    {!generation}. *)

val live_count : t -> string -> int
(** Number of live (non-[Unowned]) segments of [name] — the
    descriptor-visit charge of a single covering query on it. *)

(** {1 Accounting} *)

(** Currently allocated / high-water-mark storage, in elements. *)
val allocated_elements : t -> int

val peak_elements : t -> int

(** Number of segment-descriptor visits performed by covering queries
    so far (the cost the paper says "more efficient algorithms could
    be developed" for; measured in micro-benchmarks).  Only table
    work counts: {!owned_element}, the per-element check both engines
    make on array reads and writes, visits nothing here, so the count
    is the same on either engine. *)
val descriptor_visits : t -> int

val note_visits : t -> int -> unit
(** Record [n] descriptor visits without performing them.  Used by the
    staged engine when a revalidated kernel marshalling plan stands
    in for the covering scans it memoizes — the plan's pieces are
    exactly what a fresh scan would visit — keeping
    {!descriptor_visits} (and the charges derived from it)
    engine-independent. *)

(** {1 Rendering} *)

(** Figure 2-style rendering of the table (one row per array, plus
    the run-time segment descriptor entries). *)
val pp_table : Format.formatter -> t -> unit
