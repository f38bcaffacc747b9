(** Compiler-chosen segmentation of a processor's local partition.

    Per §3.1, each processor's local partition of an array is
    logically divided into {e segments} of a compiler-chosen shape,
    and ownership is transferred at segment granularity.  Segment
    shapes are given in {e local} (compressed) coordinates: a shape of
    [(4,2)] means 4 consecutive owned indices in dimension 1 by 2
    consecutive owned indices in dimension 2 — which for a CYCLIC
    dimension corresponds to a strided global footprint, exactly as
    the paper's segment descriptors record with their [stride] field. *)

open Xdp_util

type desc = { id : int; box : Box.t }
(** A segment: its id within the processor's table, and its global
    footprint (a strided box, mirroring the paper's
    [lbound]/[ubound]/[stride] descriptor fields). *)

(** [tile layout ~pid ~seg_shape] — the segment descriptors of [pid]'s
    local partition, tiled row-major in local coordinates.  The last
    segment along a dimension may be ragged (smaller than
    [seg_shape]).
    @raise Invalid_argument if [seg_shape] has the wrong rank, has a
    non-positive extent, or if a chunk of owned indices does not form
    an arithmetic progression (e.g. a CYCLIC(m) dimension tiled with a
    segment extent that straddles blocks — choose an extent dividing
    [m]). *)
val tile : Layout.t -> pid:int -> seg_shape:int list -> desc list

(** A safe coarse default segment shape: the whole local partition in
    each dimension, except [CYCLIC(m)] dimensions where it is the
    block size [m] (larger chunks would straddle blocks and not be
    expressible as one descriptor). *)
val default_shape : Layout.t -> int list

(** Total elements across the descriptors. *)
val total_elements : desc list -> int

(** [find_containing descs idx] — the descriptor whose box contains
    index vector [idx], if any. *)
val find_containing : desc list -> int list -> desc option

(** [segment_map layout ~pid ~seg_shape] — ASCII map of a rank-2
    array: each element owned by [pid] shows its segment id character
    ('0'-'9','a'-..), all other elements show ['.'] (regenerates the
    panels of Figure 3). *)
val segment_map : Layout.t -> pid:int -> seg_shape:int list -> string
