(** Shortest paths. Dijkstra over transmission delays (the path metric
    [phi] of the paper) and BFS over hop counts. *)

val dijkstra : Graph.t -> Graph.node -> (Graph.node, int * Graph.node) Hashtbl.t
(** [dijkstra g src] maps every reachable node [v] to
    [(distance, predecessor)] where distance is the minimum total delay
    of a path [src ~> v]. The source maps to [(0, src)]. *)

val shortest_path : Graph.t -> Graph.node -> Graph.node -> Path.t option
(** Minimum-delay path, [None] when unreachable. *)

val hop_path : Graph.t -> Graph.node -> Graph.node -> Path.t option
(** Minimum-hop path via BFS, [None] when unreachable. *)
