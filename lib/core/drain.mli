(** Drain bookkeeping: when does old flow stop crossing each switch?

    One cohort is injected at the source per time step and follows the
    initial path until the first switch whose rule has already flipped.
    Scheduling switch [v_j] (at old-path prefix delay [P_j]) at time [s]
    therefore stops pure-old-path *arrivals* at every strictly downstream
    switch [v_k] for cohorts injected at [s - P_j] or later, i.e. arrivals
    at [v_k] from step [s - P_j + P_k] on. These closed-form horizons are
    what Algorithm 3's dependency test and the greedy scheduler's safety
    check consult instead of a full oracle simulation. A view of the
    committed schedule costs one pass over the path; a candidate's
    tentative flip is then answered pointwise in O(1)
    ({!last_arrival_after_flip}), with no view of the tentative schedule. *)

open Chronus_graph
open Chronus_flow

type t
(** Immutable per-instance precomputation (old-path order and prefix
    delays). *)

val make : Instance.t -> t

type view
(** Drain horizons under one concrete (partial) schedule. *)

val view : t -> Schedule.t -> view
(** O(|p_init|). Queries on the view are O(1). *)

val last_arrival : view -> Graph.node -> Horizon.t
(** Until when do pure-old-path cohorts keep *arriving* at the switch?
    [Never] for switches off the initial path. The source receives
    injections forever. *)

val last_arrival_after_flip :
  view -> flip:Graph.node * int -> Graph.node -> Horizon.t
(** [last_arrival_after_flip (view d s) ~flip:(v, t) y] is
    [last_arrival (view d (Schedule.add v t s)) y] for a [v] that [s]
    does not schedule, in O(1): for [y] strictly downstream of [v] on
    the initial path it is [min (last_arrival view y) (Until (t - P_v - 1
    + P_y))], and everywhere else [last_arrival view y] — a switch's own
    flip never changes its own arrivals. *)

val is_upstream : view -> of_:Graph.node -> Graph.node -> bool
(** [is_upstream view ~of_:v z]: does [z] lie strictly before [v] on the
    initial path? [false] when either is off it. O(1). *)

val last_old_exit : view -> Graph.node -> Horizon.t
(** Until when do cohorts keep *entering* the link from this switch to its
    old next hop? Stops both when upstream diverts and when the switch's
    own rule flips. [Never] off the initial path and at the destination. *)

val expiries : view -> int list
(** The sorted finite horizon values of the view (arrival and exit
    horizons over all old-path switches). The scheduler's state can only
    change when one of these passes, so waiting can jump between them. *)
