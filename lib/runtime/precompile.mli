(** The staged execution engine: a one-time pass compiling an IL+XDP
    program into OCaml closures, removing the per-statement
    interpretation tax from the simulator's hot path (DESIGN.md §4c).

    What the tree-walking interpreter re-derives on every statement is
    resolved once here:

    - scalar names become integer slots in mutable frames — typed
      fixpoint inference assigns each variable an unboxed [int] or
      [float] slot when every binding agrees, with a boxed {!Value.t}
      slot as the dynamic fallback (no [Hashtbl] in the hot loop);
    - expressions compile through dedicated unboxed [int]/[float]/
      [bool] compilers, falling back to exact {!Value} semantics when
      a subexpression is dynamically typed;
    - element accesses get per-site inline caches of their backing
      segment (geometry + storage chunk), validated against the symbol
      table's {!Xdp_symtab.Symtab.generation} counter, so steady-state
      reads and writes are array loads/stores;
    - section resolutions whose subscripts are literals resolve to
      their box at compile time; every other section is resolved on
      each execution, as the interpreter does;
    - intrinsic queries ([iown], [accessible], [await]) call the
      descriptor-charged oracles of {!Rules} directly, like the
      interpreter (no per-site cache: it never hit);
    - cost charging is batched per straight-line region: chargeable op
      counts accumulate into a {!Xdp_sim.Costmodel.tally} at compile
      time and each region charges the model once per execution.

    The compiled program is {e observably identical} to the
    interpreter: identical arrays, statistics (including [guard_evals]
    and [statements]), trace events and misuse diagnostics, because
    every abort point (an [Unowned_ref], a [Blocked_on], a misuse
    error) ends its charge-batching region — charges that the
    interpreter applies before a potential abort are applied before it
    here too.  Everything else a statement does at run time — transfer
    statements with their exact per-event charge points, placement
    queries, guard counters, kernel charges, misuse diagnostics and the
    step budget — is the same {!Rules} function the interpreter
    calls.

    The second staging level (DESIGN.md §4d) adds {e superinstruction
    fusion}: maximal runs of statements that can never raise
    [Blocked_on] (no transfer statements, no [await] anywhere in their
    expressions) are additionally compiled into a single fused closure
    that executes the whole run — loop nests included — in one
    scheduler turn.  Loop nests specialize further: a counted loop
    whose body is a single fixed-cost element store compiles into a
    {e range kernel}.  At loop entry it checks, without charging, that
    no iteration can abort — every subscript is [v], [v ± literal] or
    loop-invariant, every access walks a range inside one segment of
    this processor that is not [Unowned] and has storage, every scalar
    read is bound, and the step budget has room for all iterations —
    and only then charges header + trips×tally once and runs the body
    directly over the segments' float chunks, allocation-free.  A loop
    the check rejects runs charged, statement by statement, so it
    aborts with the interpreter's clock.  An [fft1D] [Apply] of the
    stock kernel inlines the {!Xdp.Kernels.dht_sub} call path: a
    per-site marshalling plan, revalidated on every call, copies the
    section into a reusable machine buffer and back.  Fusion is always on; the interpreter
    is the reference it is checked against.  The scheduler decides per
    turn whether running fused is sound (no receive this processor has
    in flight targets an array the run touches) and otherwise falls
    back to the statement-at-a-time units, so traces, Gantt charts and
    fault interleavings are bit-identical either way.

    Guards that cannot fuse because their body blocks (an
    owner-computes [iown(S) : send ...] or [mypid = k : recv ...])
    compile to {e scannable guards} instead: the scheduler covers a
    run of consecutive false ones in a single turn, each still counted
    and charged on its own, and stops at the first that holds.  SPMD
    transfer phases are mostly such false guards, so this collapses
    an all-to-all's per-processor walk to about one turn per hit.  A
    run of two or more shares a dispatch table ({!Guardrun}): the
    guards that cannot hold on a processor ([mypid = k] naming another
    one, [iown] of a literal box meeting none of its descriptors) are
    settled — counted and charged exactly as if evaluated — without
    evaluating them. *)

type machine
(** The mutable state of one processor's compiled execution: slot
    frames, per-site inline caches, the range kernels' register file,
    and its {!Rules.proc}. *)

(** What executing one compiled statement asks the scheduler to do
    next; mirrors the interpreter's frame discipline exactly (one
    statement per scheduler micro-step, loop advances are their own
    charged micro-steps). *)
type act =
  | A_next  (** fall through to the next statement *)
  | A_block of units  (** push a nested block *)
  | A_loop of loop  (** push an entered loop (bounds already checked) *)

and code = machine -> act

(** One schedulable unit of a compiled block: a single statement (one
    scheduler turn per act), a fused superinstruction, or a scannable
    guard. *)
and unit_ = U_stmt of code | U_fuse of fuse | U_guard of guard

and units = unit_ array

and fuse = {
  fu_fast : machine -> unit;
      (** execute the whole run in this turn, counting every statement
          (loop iterations included) through {!Rules.count_step} as it
          goes, so the step budget stops it exactly where it stops the
          interpreter.  Only sound when no receive the processor has in
          flight targets one of [fu_arrays] ({!Rules.unobserved}). *)
  fu_slow : units;
      (** the same statements, one scheduler turn each: what the
          scheduler runs while a receive into one of [fu_arrays] is in
          flight, so its delivery can land between any two of them *)
  fu_arrays : int array;
      (** the run's footprint: the ids ({!Rules.array_ids}) of every
          array its statements read, write or query, kernel arguments
          included, from one {!Xdp.Ir.effects} walk; ascending *)
}

(** A guard whose condition has no [await] and whose body has no fused
    form (it blocks, typically on a transfer).  A turn that
    reaches one covers it and, while it is false, the [U_guard]s
    that directly follow it in the same block, stopping at the first
    that holds (its body is pushed exactly like [A_block]) or at any
    other unit; in a run with a dispatch table ([g_run]) the guards
    that cannot hold on the processor are settled rather than
    evaluated.  A false guard posts nothing, consumes nothing and
    emits no trace event, so evaluating it early is unobservable
    unless a delivery could change its outcome or its charge mid-run:
    a following guard is therefore scanned under the same licence as
    a fused run, while no receive in flight targets one of its
    [g_arrays] ({!Rules.unobserved}). *)
and guard = {
  g_test : machine -> bool;
      (** count the evaluation, charge its static head and any
          descriptor visits, and report whether it holds (counting the
          hit) — exactly what the statement's turn does *)
  g_body : units;
  g_arrays : int array;
      (** the condition's footprint, computed like [fu_arrays]: every
          array it reads or queries; empty when it reads only
          literals, [mypid], [nprocs] and variables *)
  g_kind : Guardrun.kind;
      (** its class in the dispatch table of a run ({!Guardrun.build}) *)
  g_head : float;
      (** the static part of [g_test]'s charge (guard overhead plus the
          condition's static tally), charged before any query *)
  mutable g_run : Guardrun.t option;
      (** the dispatch table of the run of two or more consecutive
          [U_guard]s this one belongs to; [None] for a lone guard or a
          run with nothing to settle ({!Guardrun.build}).  Set once,
          while the block is staged. *)
  mutable g_pos : int;  (** this guard's position in [g_run] *)
}

and loop = {
  l_lo : int;
  l_hi : int;
  l_step : int;
  l_set : machine -> int -> unit;  (** bind the loop variable's slot *)
  l_body : units;
}

type cprog
(** A compiled program: machine-independent code plus the slot/site
    layout needed to build per-processor {!machine}s. *)

val fuse_default : bool
(** Always [true]: {!compile} always fuses.  Kept as a constant for the
    callers that still pass it to a staging-cache digest. *)

(** [compile ~cost ~kernels ~scalars p] — stage [p] once, with
    superinstruction fusion; the result is shared by all processors.
    {!Exec.run} stages with the default kernel registry and no
    [scalars] preload ([scalars] seeds slot types and initial
    values). *)
val compile :
  cost:Xdp_sim.Costmodel.t ->
  kernels:Xdp.Kernels.registry ->
  scalars:(string * Value.t) list ->
  Xdp.Ir.program ->
  cprog

val body : cprog -> units

val check_wf : cprog -> Xdp.Ir.program -> unit
(** [check_wf cp p] — {!Xdp.Wf.check_exn} [p], unless [cp] already
    recorded a passing check of this very program (physical equality):
    a staged program run many times is checked once.  A failing check
    records nothing, so an ill-formed program raises on every run. *)

(** Static statistics of the superinstruction pass, accumulated at
    compile time. *)
type fusion_stats = {
  fs_statements : int;  (** statements compiled *)
  fs_fusable : int;  (** statements with a fused form *)
  fs_fused_units : int;  (** superinstructions emitted *)
  fs_run_hist : (int * int) list;
      (** run length -> count, sorted by length *)
  fs_spec_loops : int;  (** natively specialized loop statements *)
  fs_batched_loops : int;
      (** loops with a fixed-cost single-store body: range kernels that
          charge one batched tally when their entry check passes *)
  fs_inlined_kernels : int;  (** inlined kernel call sites *)
  fs_blockers : (string * int) list;
      (** why statements have no fused form: blocking reason -> count,
          sorted by reason.  Reasons: ["transfer"] (the statement posts
          or consumes board state and may raise [Blocked_on]),
          ["await-in-guard"]/["await-in-expr"]/["await-in-bounds"]/
          ["await-in-cond"]/["await-in-args"] (an [await] intrinsic in
          the named position), ["unknown-kernel"].  Compound statements
          report the first blocked inner statement's reason, so a
          transfer-bound copy loop (the misaligned vecadd gap) shows
          up as ["transfer"], not a generic blocked-body.  The same
          analysis decides fusability and the reason, so the counts
          sum to [fs_statements - fs_fusable]. *)
}

val fusion_stats : cprog -> fusion_stats

val fusion_digest : cprog -> string
(** Hex digest of a canonical rendering of {!fusion_stats} — pinned by
    the golden tests so the fusion pass's region analysis cannot drift
    silently. *)

(** [machine cp p] — fresh state for processor [p] (slots seeded from
    the scalar preload, caches cold). *)
val machine : cprog -> Rules.proc -> machine

val run_cursor : machine -> Guardrun.t -> Guardrun.cursor
(** The machine's candidates over a guard run, built on first use. *)
