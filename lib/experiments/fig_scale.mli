(** Scale experiment: compiled-table compression, simulator throughput
    (events/s), per-lookup cost on loaded flow tables, and end-to-end
    update time versus topology size, for all three executors — the
    workload ROADMAP item 2 calls for and the prefix-compiled flow
    table + calendar event queue make tractable.

    Each cell builds a full fat-tree (k-ary, 4..32 — k=32 is 1,280
    switches) or a B4-like WAN, gives every endpoint a hierarchical
    address ({!Chronus_topo.Addressing}), compiles each switch's
    complete forwarding function to an aggregated prefix table
    ({!Chronus_sim.Table_compiler}) — a core switch needs O(k) rules
    instead of one per host — then reroutes one pod-to-pod or
    site-to-site flow with each executor and probes the loaded tables
    with 100k random host-address lookups. Rule counts, compression,
    table words, event counts and update spans are deterministic (cells
    derive their RNGs from the kind's value, so rows are bit-identical
    at any [CHRONUS_JOBS]); events/s and lookup ns are wall-clock
    measurements, which is why the benchmark digest drops them — like
    fig10's timings. *)

type kind = Fat_tree of int | B4 | Wan of int

type row = {
  topo : string;
  switches : int;
  links : int;
  rules_exact : int;
      (** what one exact rule per (switch, endpoint) would install *)
  rules_compiled : int;  (** aggregated prefix rules actually installed *)
  compression : float;  (** [rules_exact /. rules_compiled] *)
  table_words : int;  (** deterministic table-memory estimate, words *)
  updates : int;  (** switches the reroute touches *)
  events : int;  (** engine events across the three executor runs *)
  chronus_span_s : float;
  tp_span_s : float;
  or_span_s : float;
  chronus_clean : bool;  (** no loops/blackholes/overloads, timed run *)
  events_per_s : float;  (** wall-measured sim throughput *)
  lookup_ns : float;  (** wall-measured per-lookup cost on loaded tables *)
}

val name : string

val addressing : Chronus_graph.Graph.t -> kind -> Chronus_topo.Addressing.t
(** The address layout a cell uses: hierarchical pod/edge/host on
    fat-trees, flat site/host on B4 and WANs. *)

val compiled_preinstall :
  Chronus_graph.Graph.t ->
  kind ->
  Chronus_topo.Addressing.t ->
  (int * Chronus_sim.Controller.flow_mod) list * int
(** The compiled base-forwarding state a cell preinstalls: one
    [Install_prefix] batch per switch (and the total compiled rule
    count). Exposed so tests can walk the exact tables the figure
    runs on. *)

val run : ?jobs:int -> ?scale:Scale.t -> ?kinds:kind list -> unit -> row list
(** One row per topology. [kinds] defaults by scale — tiny: a [k=4]
    fat-tree and an 8-site WAN; quick adds [k=6,8,16], B4 and bigger
    WANs; paper scales to [k=32] and 128 sites. *)

val print : row list -> unit
