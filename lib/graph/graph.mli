(** Directed graphs with per-edge capacity and transmission delay.

    This is the network substrate of the Chronus reproduction: switches are
    integer nodes, links are directed edges annotated with an integer
    capacity [C(u,v)] and an integer transmission delay [sigma(u,v)]
    (Table I of the paper). The structure is mutable and hash-based so that
    the scheduling algorithms scale to the thousands of switches used in
    Fig. 10. *)

type node = int
(** Switches are identified by non-negative integers. *)

type edge = {
  capacity : int;  (** link capacity [C(u,v)], in flow units per step *)
  delay : int;  (** transmission delay [sigma(u,v)], in time steps *)
}

type t
(** A mutable directed graph. *)

val create : ?size:int -> unit -> t
(** [create ()] is an empty graph. [size] is a capacity hint. *)

val copy : t -> t
(** [copy g] is an independent deep copy of [g]. *)

val add_node : t -> node -> unit
(** [add_node g v] adds isolated node [v]; no-op if already present. *)

val mem_node : t -> node -> bool

val nodes : t -> node list
(** All nodes in increasing order. *)

val node_count : t -> int

val add_edge : ?capacity:int -> ?delay:int -> t -> node -> node -> unit
(** [add_edge g u v] adds (or replaces) edge [u -> v]. Defaults:
    [capacity = 1], [delay = 1]. Endpoints are added as needed.
    @raise Invalid_argument on self-loops, non-positive capacity, or
    negative delay. *)

val remove_edge : t -> node -> node -> unit
(** No-op if the edge is absent. *)

val mem_edge : t -> node -> node -> bool

val find_edge : t -> node -> node -> edge option

val capacity : t -> node -> node -> int
(** @raise Not_found if the edge is absent. *)

val delay : t -> node -> node -> int
(** @raise Not_found if the edge is absent. *)

val succ : t -> node -> (node * edge) list
(** Out-neighbours with their edge attributes, in increasing node order. *)

val pred : t -> node -> (node * edge) list
(** In-neighbours with their edge attributes, in increasing node order. *)

val in_degree : t -> node -> int

val edges : t -> (node * node * edge) list
(** All edges sorted lexicographically by endpoints. *)

val pp : Format.formatter -> t -> unit
(** Human-readable multi-line dump. *)

val equal : t -> t -> bool
(** Structural equality on node and edge sets (attributes included). *)
