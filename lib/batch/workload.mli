(** From a manifest {!Manifest.spec} to a runnable IL+XDP program.

    One shared catalogue of the bundled applications and their
    optimization stages, used by the [xdpc] CLI (both the single-run
    command and [xdpc batch]), the batch benchmarks and the tests —
    the app/stage string tables used to live inside [bin/xdpc.ml]. *)

type t = {
  prog : Xdp.Ir.program;
  init : string -> int list -> float;
  check : string;  (** the result array an app is judged by *)
  nic : (int * Xdp_nic.Prog.t) list;
      (** per-processor NIC programs to attach ([reduce]'s [nic]
          stage); empty for every other app/stage *)
  redist_stages : int;
      (** stage count of the planned collective schedule ([redist]'s
          [collectives] strategy) — forwarded to [Exec.run
          ?redist_stages] so stats report it; [0] everywhere else *)
}

val known_apps : string list

val stages_of : string -> string list
(** Canonical stage names of an app (aliases such as jacobi's [auto]
    are accepted by {!check_spec} but not listed); the first is its
    default. *)

val cost_of_string : string -> (Xdp_sim.Costmodel.t, string) result
(** Accepts [message_passing]/[mp], [shared_address]/[sa],
    [idealized]/[ideal], [nic_compute]/[nic]. *)

val redist_of_string : string -> ([ `Naive | `Collectives ], string) result
(** Accepts exactly [naive] and [collectives] (the [redist] manifest
    field and the [--redist] CLI flag; the budget travels separately
    as [redist_budget]). *)

val placement_of_string :
  string -> ([ `Naive | `Hand | `Search ], string) result
(** Accepts exactly [naive], [hand] and [search] (the [placement]
    manifest field and the [--placement] CLI flag). *)

val fault_plan : Manifest.spec -> Xdp_net.Faultplan.t
(** The fault plan a spec names: {!Xdp_net.Faultplan.none} when
    [drop], [dup] and [jitter] are all zero, otherwise a plan seeded by
    [fault_seed]. *)

val transport_config : Manifest.spec -> Xdp_net.Transport.config
(** {!Xdp_net.Transport.default_config} with the spec's [timeout] and
    [max_retries] overrides applied. *)

val dlstack_config : Manifest.spec -> Xdp_search.Space.config
(** The [dlstack] workload a spec names: [procs], [batch = n], [dim],
    [nlayers = layers]. *)

val dlstack_placement :
  Manifest.spec -> (Xdp_search.Space.placement, string) result
(** Resolve a spec's [placement]: the [naive]/[hand] anchors (with the
    [shard]/[wshard] per-layer overrides applied and re-validated), or
    the deterministic {!Xdp_search.Anneal.search} winner under the
    default options ([search], which rejects overrides — the searcher
    owns every axis it sweeps). *)

val check_spec : Manifest.spec -> (Manifest.spec, string) result
(** Validate the transport settings ([timeout] > 0, [max_retries] >=
    0, checked first) and the app, stage, cost and engine names, and
    canonicalize the names (aliases and defaulted stages are rewritten
    to canonical names, so equal jobs get equal labels and cache
    keys).  A [dlstack] spec gets every check {!dlstack_placement} can
    fail, but a [search] placement is not searched here: {!build} runs
    the search once.  The [?check] callback [xdpc batch] passes to
    {!Manifest.parse}, and the check [xdpc] runs on its flags. *)

val build : Manifest.spec -> t
(** Build the program for a validated spec.
    @raise Failure on an unknown app or stage (reachable only when
    {!check_spec} was skipped). *)
