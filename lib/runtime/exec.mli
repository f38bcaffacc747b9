(** The SPMD machine executor: runs an IL+XDP program on P simulated
    processors (the operational semantics of Figure 1).

    Every processor executes the same program (SPMD); compute rules
    select statements per processor.  Execution is a deterministic
    discrete-event simulation: each processor has a local clock
    charged per the machine {!Xdp_sim.Costmodel}; transfer statements
    post to the rendezvous {!Xdp_sim.Board}; a processor that must
    wait (an [await] on a transitional section, an ownership send of a
    transitional section, a receive into a transitional section)
    blocks until the completing delivery arrives, at which point its
    clock advances to the arrival time.  The scheduler always steps
    the runnable processor with the smallest (clock, pid) and applies
    deliveries in arrival order, so identical inputs give identical
    traces.

    XDP's unsafety is preserved: reading a {e transitional} section is
    not checked (you get the bytes that are there); reading the value
    of an {e unowned} element outside a compute rule, writing an
    unowned element, sending a section you do not own, or transferring
    ownership of a partial segment are diagnosed as {!Xdp_misuse} —
    these are exactly the obligations the paper places on the
    compiler.  If every processor is blocked and nothing is in flight,
    {!Deadlock} is raised with a description of who waits on what.

    Both engines obey one rule table, {!Rules}: the transfer rules
    with their exact per-event charges and trace events, the
    descriptor-charged placement queries, every misuse diagnostic and
    the step budget live there, and the interpreter's statement step
    and the staged closures ({!Precompile}) call them directly.  This
    module adds what is not a rule: the two engines' frame stacks, the
    (clock, pid) scheduler and delivery wake-up, the stuck-run
    diagnosis, gather and the stats record.

    Every run posts through one fixed network stack: the NIC fabric
    ({!Xdp_nic.Fabric.post_send}) on top, the reliable transport
    ({!Xdp_net.Transport}) under it, the board at the bottom.  With no
    NIC programs the fabric forwards every send; under
    {!Xdp_net.Faultplan.none} the transport hands the board's
    deliveries straight up.  Under any other plan the wire may drop,
    duplicate, reorder and slow messages, the transport recovers by
    ack/retransmit, and a message lost past the retry budget raises
    {!Xdp_net.Transport.Link_failed} naming the dead (src, dst,
    section) links — a stuck run is always diagnosed as either a
    program bug ({!Deadlock}: nothing was ever in flight) or a
    network failure ({!Link_failed}), never a silent hang. *)

open Xdp_util

exception Deadlock of string
(** The same exception as {!Rules.Deadlock}. *)

exception Xdp_misuse of string
(** The same exception as {!Rules.Xdp_misuse}. *)

type engine = [ `Interp | `Compiled ]
(** [`Interp] is the tree-walking reference interpreter; [`Compiled]
    stages the program once into closures over mutable slot frames
    ({!Precompile}) and is observably identical: same arrays, same
    statistics (including [guard_evals] and [statements]), same trace
    events and diagnostics — verified per-run by the differential
    suite. *)

val engine_of_string : string -> (engine, string) result
(** The one engine-name parser (the [XDP_ENGINE] variable, manifest
    ["engine"] fields and the [--engine] flag): [compiled]/[staged]
    select [`Compiled], [interp]/[interpreter]/[reference] select
    [`Interp]; anything else is an [Error] listing the accepted
    names. *)

val engine_name : engine -> string
(** The canonical name: ["compiled"] or ["interp"]. *)

val default_engine : engine
(** [`Compiled], unless the process was started with [XDP_ENGINE] set
    to an interpreter name ({!engine_of_string}) — the switch the CI
    engine matrix flips.  A value {!engine_of_string} rejects raises
    [Invalid_argument] at module initialization — a typo must not
    silently select an engine. *)

type fusion = { fused_turns : int; fused_statements : int }
(** Dynamic superinstruction accounting of a run: scheduler turns that
    executed several statements at once, and the statements those
    turns covered.  Such a turn either ran a fused run or scanned two
    or more owner-computes guards ({!Precompile.guard}; a scan turn
    counts every guard it evaluated, the one that held included).
    Zero under the interpreter, or when every fused unit fell back to
    statement-at-a-time execution and no scan got past its first
    guard.  Kept out
    of {!Xdp_sim.Trace.stats} deliberately: the stats record is
    compared field-for-field across engines by the differential
    suite. *)

type result = {
  arrays : (string * Tensor.t) list;  (** gathered global arrays *)
  stats : Xdp_sim.Trace.stats;
  trace : Xdp_sim.Trace.t;
  symtabs : Xdp_symtab.Symtab.t array;  (** final per-processor tables *)
  fusion : fusion;
}

val run :
  ?engine:engine ->
  ?staged:Precompile.cprog ->
  ?cost:Xdp_sim.Costmodel.t ->
  ?init:(string -> int list -> float) ->
  ?trace:bool ->
  ?free_on_release:bool ->
  ?max_steps:int ->
  ?fault:Xdp_net.Faultplan.t ->
  ?net:Xdp_net.Transport.config ->
  ?nic:(int * Xdp_nic.Prog.t) list ->
  ?redist_stages:int ->
  nprocs:int ->
  Xdp.Ir.program ->
  result
(** [run ~nprocs p] — execute [p] on [nprocs] processors.  [engine]
    (default {!default_engine}) selects the staged engine or the
    reference interpreter; [staged] skips the one-time
    {!Precompile.compile} and reuses an already-staged program — the
    compile-once/run-many seam the batch service's digest-keyed cache
    drives.  Both engines run with the default kernel registry
    ({!Xdp.Kernels.default}) and no scalar preload, so the caller's
    coherence obligation is: same program, same cost.  The [cprog]
    must have been compiled from this very program with this [cost]
    (the cache keys on a digest of both), and must only be shared
    {e within} a domain — per-processor mutable state lives in the
    {!Precompile.machine}s built here, but cross-domain reuse is not
    part of the contract.  Supplying [staged] with [engine = `Interp]
    is an [Invalid_argument].  A reused staged program is
    bit-identical to a fresh compile (enforced by the batch qcheck
    suite).  [init] seeds every owned element (applied identically by
    {!Seq}, enabling bit-for-bit verification); [trace] records an
    event log; [free_on_release]
    (default true) controls storage reuse on ownership sends
    (experiment T6); [max_steps] bounds total executed statements
    (default 20,000,000); [fault] (default {!Xdp_net.Faultplan.none})
    injects network faults, recovered from by the reliable transport
    configured by [net] (default {!Xdp_net.Transport.default_config});
    a [net] outside its bounds is an [Invalid_argument] on every run.

    [nic] attaches verified {!Xdp_nic.Prog} programs to processors
    ([(pid, program)], 0-based): every directed value send to a
    processor with a program attached is diverted through its NIC
    ({!Xdp_nic.Fabric}) before reaching the transport, under the
    [nic_alpha]/[nic_beta]/[nic_op] cost axis.  The fabric sits above
    the transport, so NIC state never sees retransmits or duplicates
    — NIC programs are idempotent under faults.  Attach-time
    verification failures (ill-typed programs, forwarding cycles,
    forwarding to an unattached processor) raise [Invalid_argument]
    with the positioned diagnostic.
    [redist_stages] (default 0) is static planner metadata recorded
    verbatim into [stats.redist_stages]: the caller that lowered a
    collective redistribution schedule ({!Xdp.Plan_redist}) passes the
    stage count so reports and batch records can carry it next to the
    measured [stats.peak_inflight_bytes].
    @raise Xdp_net.Transport.Link_failed when a message is lost past
    the transport's retry budget.
    @raise Xdp_nic.Fabric.Nic_misuse when an attached program
    misbehaves dynamically (computed target or slot out of range). *)

val array : result -> string -> Tensor.t

(** Elements of declared arrays owned by nobody / by several
    processors after the run ([(unowned, multiply_owned)] counts) —
    both should be zero for a correct program; checked by tests. *)
val ownership_defects : result -> Xdp.Ir.program -> int * int
