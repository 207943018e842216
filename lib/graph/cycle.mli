(** Cycle detection and topological ordering.

    Loop-freedom checks — both the per-round safety condition of the
    order-replacement baseline and several test oracles — reduce to cycle
    detection on forwarding graphs. *)

val has_cycle : Graph.t -> bool
(** Does [g] contain a directed cycle? *)

val topological_sort : Graph.t -> Graph.node list option
(** Kahn's algorithm. [None] when the graph is cyclic; ties broken by
    increasing node id, so the result is deterministic. *)
