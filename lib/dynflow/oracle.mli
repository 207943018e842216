(** The dynamic-flow oracle: exact validation of a timed update schedule.

    The oracle simulates the dynamic flow of the paper at cohort
    granularity: one cohort of [demand] units is injected at the source at
    every discrete time step, from far enough in the past that the initial
    steady state is captured, to far enough in the future that every
    transient interaction has played out. A cohort arriving at switch [v]
    at time [t] is forwarded along [v]'s rule *active at time [t]* (old
    next hop before the switch's scheduled update time, new next hop
    after), contributing [demand] to the load of the chosen link at step
    [t] and arriving at the other end [sigma] steps later.

    A schedule is consistent iff no step overloads a link (Definition 3),
    no cohort revisits a switch (Definition 2), and no cohort is dropped at
    a switch without an applicable rule (our blackhole extension, relevant
    when a path-only switch's rule is added late or deleted early).

    Partial schedules are meaningful: unscheduled switches simply keep
    their old rule forever, which is exactly the prefix semantics the
    greedy scheduler needs. *)

open Chronus_graph

type outcome =
  | Delivered  (** reached the destination *)
  | Looped of Graph.node  (** revisited this switch: transient loop *)
  | Dropped of Graph.node  (** no applicable rule at this switch *)

type cohort = {
  injected : int;  (** injection time step *)
  visits : (Graph.node * int) list;  (** arrival times, source first *)
  outcome : outcome;
}

type violation =
  | Congestion of {
      u : Graph.node;
      v : Graph.node;
      time : int;  (** step at which the aggregate entering load exceeds *)
      load : int;
      capacity : int;
    }
  | Loop of { switch : Graph.node; injected : int; time : int }
  | Blackhole of { switch : Graph.node; injected : int; time : int }

type report = {
  ok : bool;
  violations : violation list;  (** sorted, deduplicated *)
  congested : (Graph.node * Graph.node * int) list;
      (** distinct overloaded time-extended links [(u, v, entry step)] —
          the quantity plotted in Fig. 8 *)
  peak_load : int;  (** maximum load observed on any link at any step *)
  window : int * int;  (** simulated injection window (inclusive) *)
}

type tracer
(** A per-instance tracing handle: the instance's rules as direct-address
    arrays plus per-trace scratch. Build one per instance and reuse it for
    every trace; it is single-domain state. *)

val tracer : Instance.t -> tracer

val trace_from : tracer -> Schedule.t -> Graph.node -> int -> cohort
(** [trace_from tr sched v t] follows a cohort that is at switch [v] at
    step [t] (its [injected] field is set to [t]) through the rules that
    [sched] puts in force. From the source, this is the cohort injected at
    [t]; from a candidate switch, it is the first cohort its flip
    redirects, which Algorithm 4 examines. *)

val evaluate :
  ?background:(Graph.node -> Graph.node -> int) -> Instance.t -> Schedule.t ->
  report
(** Full validation of a (possibly partial) schedule.

    [background u v] (default the constant-zero function) is the steady
    load that {e other} flows place on link [u -> v]: the capacity scan
    charges it on every step at which the dynamic flow enters the link,
    so a schedule that is fine in isolation is rejected when shared links
    cannot absorb the combined load. Two contract points callers must
    uphold (both hold by construction for
    {!Chronus_service.Service}-managed updates):

    - [background] is consulted only on links the dynamic flow itself
      enters. Links carrying background traffic alone are never scanned,
      so the background configuration must be valid on its own
      ([background u v <= capacity u v] everywhere, which
      {!Instance.create_multi} checks for joint steady states).
    - The function must be pure and constant for the duration of the
      call: it describes steady routes of flows that are {e not} moving.

    With the default zero background this is byte-identical to the
    single-flow oracle — all golden digests are preserved. *)

(** The incremental engine: a session over one instance caching a base
    schedule's evaluation — per-cohort traces, packed load entries, the
    closed-form stream windows — plus a consult index from switches to
    the cached cohorts whose routes read their rule. Probing
    [Schedule.add v t base] re-traces only cohorts that can observe the
    flip (those consulting [v] at arrival step >= t, plus cohorts newly
    inside the probed schedule's widened window) and replays the rest
    from cache.

    The equivalence obligation: every probe's report is structurally
    identical to [evaluate] on the probed schedule (all report fields are
    order-canonical). [test/suite_oracle_incremental.ml] asserts this
    differentially on randomized scenarios.

    A checker is single-domain state; each domain builds its own.
    [commit] (no undo) and [push]/[pop] (bracketed, for DFS) do not
    mix: [commit] and [retarget] raise while [push] frames are
    outstanding. *)
module Checker : sig
  type t

  val create :
    ?background:(Graph.node -> Graph.node -> int) -> Instance.t ->
    Schedule.t -> t
  (** Evaluate [sched] from scratch and cache it as the base.

      [background] has the same meaning and contract as in {!evaluate}
      and is captured by the session: every subsequent [probe], [commit]
      and [push] validates against the same cross-flow load, until a
      [retarget] replaces it. Cached
      cohort traces are routing state and never depend on the background,
      so the incremental replay machinery is unchanged — only the final
      capacity scan reads it. *)

  val base : t -> Schedule.t

  val base_report : t -> report
  (** The cached report of the base schedule; free. *)

  val instance : t -> Instance.t
  (** The instance this session currently validates. *)

  val retarget :
    ?background:(Graph.node -> Graph.node -> int) -> t -> Instance.t -> unit
  (** [retarget ck inst] re-points the session at [inst] with the {e empty}
      schedule as base, reusing the session's per-graph state (the packed
      capacity table and the dense rule arrays). [inst] must be over the
      physically same graph as the session's current instance. An empty
      base simulates zero window cohorts, so the call costs one
      representative trace plus an array reset — counted under the
      [oracle.retargets] label, not [oracle.full_evals]. The resulting
      session state is indistinguishable from
      [create ?background inst Schedule.empty].

      [background] replaces the session's cross-flow load; omitting it
      keeps the current one (contract as in {!evaluate}).
      @raise Invalid_argument on a different graph or with outstanding
      [push] frames. *)

  val probe : t -> Graph.node -> int -> report
  (** [probe ck v t] is [evaluate inst (Schedule.add v t (base ck))],
      incrementally. Does not change the base. The last single-flip probe
      is memoised, so probe-then-[commit]/[push] of the same flip costs
      one incremental evaluation, and repeating a probe is free.
      @raise Invalid_argument as [Schedule.add] (scheduled switch,
      negative time). *)

  val probe_list : t -> (Graph.node * int) list -> report
  (** Probe several flips added together (the B&B's last-step closure). *)

  val commit : t -> Graph.node -> int -> report
  (** Promote the probe of [(v, t)] into the new base and return its
      report. @raise Invalid_argument with outstanding [push] frames,
      which [pop] could otherwise only restore by dropping the
      commit. *)

  val push : t -> Graph.node -> int -> report
  (** Like [commit], remembering the previous base for [pop]. *)

  val pop : t -> unit
  (** Restore the base saved by the matching [push].
      @raise Invalid_argument without an outstanding [push]. *)
end

val is_consistent :
  ?background:(Graph.node -> Graph.node -> int) -> Instance.t -> Schedule.t ->
  bool
(** [true] iff the schedule covers every required switch and [evaluate]
    reports no violation. [background] as in {!evaluate}. *)

val link_loads :
  Instance.t -> Schedule.t -> ((Graph.node * Graph.node * int) * int) list
(** Every [(u, v, entry step)] on which flow enters a link, with the total
    load entering at that step; sorted. This is the occupancy of the
    time-extended network of Definition 4. *)

val pp_report : Format.formatter -> report -> unit
