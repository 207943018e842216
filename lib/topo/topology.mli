(** Standard topology constructions. Capacities and delays default to 1
    and can be overridden uniformly, or delays redrawn per link with
    {!randomize_delays}. *)

open Chronus_graph

type params = {
  capacity : int;
  delay : int;
}

val default : params

val line : ?params:params -> int -> Graph.t
(** [line n]: nodes [0..n-1], bidirectional edges between neighbours. *)

val ring : ?params:params -> int -> Graph.t

val grid : ?params:params -> int -> int -> Graph.t
(** [grid w h]: node [y*w + x]; bidirectional mesh edges. *)

val complete : ?params:params -> int -> Graph.t

val fat_tree : ?params:params -> int -> Graph.t
(** Canonical k-ary fat-tree (k even): [k^2/4] core, [k/2] aggregation and
    [k/2] edge switches per pod, [k] pods; bidirectional links. Hosts are
    not modelled. @raise Invalid_argument on odd [k]. *)

val b4 : ?params:params -> unit -> Graph.t
(** Google's B4 inter-datacenter WAN (Jain et al., SIGCOMM'13): twelve
    sites, nineteen bidirectional links. *)

val wan : ?params:params -> rng:Rng.t -> int -> Graph.t
(** [wan ~rng n]: a B4-like inter-datacenter WAN with [n] sites — a
    resilience ring plus [n/2] random chords (average degree ~3). The
    ring keeps the graph 2-edge-connected, so every link has a detour.
    @raise Invalid_argument when [n < 4]. *)

val randomize_delays :
  rng:Rng.t -> lo:int -> hi:int -> Graph.t -> Graph.t
(** Fresh graph with every delay redrawn uniformly from [[lo, hi]]. *)
