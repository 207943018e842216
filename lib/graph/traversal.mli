(** Graph traversal: breadth-first order. *)

val bfs_order : Graph.t -> Graph.node -> Graph.node list
(** Nodes reachable from the root in BFS order (root first). Neighbours
    are visited in increasing node order, so the result is deterministic. *)
