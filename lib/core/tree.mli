(** Algorithm 1: polynomial-time feasibility of a congestion- and
    loop-free timed update sequence.

    The paper's tree algorithm hangs the two paths under the destination
    and repeatedly updates the switch whose dashed link crosses from the
    branch currently carrying flow to the other one, each crossing being
    admissible when the new segment's delay is no smaller than the old
    segment's ([phi(p) >= phi(q)]) or the bottleneck capacity [cons] can
    carry both streams ([cons >= 2d]); by the monotonicity argument of
    Theorem 2, a crossing that fails both tests fails at every time step.

    We expose the structural crossing analysis directly ({!crossings} and
    the per-crossing admissibility test) and decide feasibility
    constructively by driving the polynomial greedy scheduler, which
    performs exactly those tests step by step with drain accounting; on
    uniform-delay instances this decision is validated against exhaustive
    search in the test suite. *)

open Chronus_graph
open Chronus_flow

type crossing = {
  switch : Graph.node;  (** the updated switch [v] *)
  new_hop : Graph.node;  (** its dashed next hop [w] *)
  merge : Graph.node option;
      (** first switch of the final-path suffix from [w] that also lies on
          the initial path — where the redirected stream can meet old
          flow; [None] when the suffix only meets the destination *)
  backward : bool;
      (** the merge point lies upstream of [v] on the initial path: a
          transient-loop configuration that ordering must resolve *)
  phi_new : int;  (** delay of the dashed segment [v -> w ~> merge] *)
  phi_old : int option;
      (** delay of the solid segment [v ~> merge], when [merge] is
          downstream of [v] *)
  bottleneck : int;
      (** [cons]: minimum capacity on the initial path from the merge
          point to the destination *)
  admissible : bool;
      (** [phi_new >= phi_old] or [bottleneck >= 2d] — the crossing can be
          performed against live old flow; inadmissible crossings must
          wait for drain *)
}

val crossings : Instance.t -> crossing list
(** One entry per Modify/Add update, sorted by switch id. *)

val check : Instance.t -> bool
(** Polynomial feasibility decision. [true] means a consistent schedule
    exists (constructive: the greedy scheduler produced one). *)

val pp_crossing : Format.formatter -> crossing -> unit
