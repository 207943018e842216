(** The OR baseline: order replacement updates (Ludwig et al., PODC'15).

    Switches are updated in *rounds*; within a round the data plane is
    asynchronous, so a round [S] is safe only if every interleaving of its
    flips keeps forwarding loop-free. The standard characterisation: the
    graph containing the new edge of every already-updated switch, both
    edges of every switch in [S], and the old edge of everything else must
    be acyclic (any cycle picks one outgoing edge per switch, i.e. a
    realisable intermediate configuration).

    Minimising the number of rounds is NP-hard; we provide the exact
    branch-and-bound search the paper benchmarks (with a node budget) and
    the polynomial greedy that repeatedly commits a maximal safe round.
    OR deliberately ignores link capacities and transmission delays — that
    is exactly why it congests in Figs. 6–8. *)

open Chronus_graph
open Chronus_flow

val round_safe :
  Instance.t -> done_:Graph.node list -> round:Graph.node list -> bool
(** Is this round loop-free under every intra-round interleaving? *)

val replaceable_switches : Instance.t -> Graph.node list
(** The switches OR actually sequences: Modify and Add updates. Stale
    rules (Delete updates) are garbage-collected after the transition and
    are not part of any round. *)

val greedy_rounds : Instance.t -> Graph.node list list option
(** Maximal-safe-set rounds; [None] if some switch can never be updated
    (cannot happen for two simple paths, kept for totality). *)

type exact_result = {
  rounds : Graph.node list list option;
  optimal : bool;  (** false when the node budget was exhausted *)
  nodes_explored : int;
}

val minimum_rounds : ?budget:int -> Instance.t -> exact_result
(** Branch and bound over round compositions, minimising the number of
    rounds. [budget] caps explored search nodes (default 200_000). *)

val schedule_of_rounds :
  ?gap:int ->
  jitter:(round:int -> Graph.node -> int) ->
  Graph.node list list ->
  Schedule.t
(** Interpret rounds as a timed schedule for the oracle: round [i] starts
    at [i * gap] (default gap: 8) and each switch lands at
    [i * gap + jitter] with [0 <= jitter < gap] — the random per-switch
    rule-installation latency that makes the data plane asynchronous. *)
