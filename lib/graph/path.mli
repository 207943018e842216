(** Routing paths: sequences of switches from a source to a destination.

    Both [p_init] and [p_fin] of a Chronus update instance are values of
    this type. The delay of a path is the function [phi] used throughout
    Algorithm 1 of the paper. *)

type t = Graph.node list
(** A path is its node sequence, source first. Valid paths are non-empty. *)

val source : t -> Graph.node
(** @raise Invalid_argument on the empty path. *)

val destination : t -> Graph.node
(** @raise Invalid_argument on the empty path. *)

val hops : t -> int
(** Number of edges, i.e. [List.length p - 1]. *)

val edges : t -> (Graph.node * Graph.node) list
(** Consecutive node pairs. *)

val mem : Graph.node -> t -> bool

val mem_edge : Graph.node -> Graph.node -> t -> bool
(** [mem_edge u v p] is [true] iff [u -> v] is a hop of [p]. *)

val next_hop : t -> Graph.node -> Graph.node option
(** [next_hop p v] is the successor of the first occurrence of [v] on [p],
    [None] if [v] is absent or the destination. *)

val is_simple : t -> bool
(** No repeated node. *)

val is_valid : Graph.t -> t -> bool
(** Non-empty, simple, and every hop is an edge of the graph. *)

val delay : Graph.t -> t -> int
(** [phi p]: sum of the transmission delays along [p].
    @raise Not_found if a hop is not an edge of the graph. *)

val bottleneck_capacity : Graph.t -> t -> int
(** Minimum edge capacity along the path; [max_int] for single-node paths.
    @raise Not_found if a hop is not an edge of the graph. *)

val suffix_from : t -> Graph.node -> t option
(** [suffix_from p v] is the sub-path of [p] starting at [v]. *)

val prefix_to : t -> Graph.node -> t option
(** [prefix_to p v] is the sub-path of [p] ending at [v]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
