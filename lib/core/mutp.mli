(** The Minimum Update Time Problem (optimization program (3)).

    The objective is the makespan [|T|] ([Schedule.makespan]); a solution
    is a complete schedule that [Oracle.is_consistent] accepts. The exact
    solver lives in [chronus_baselines.Opt] (branch and bound, within
    {!Feasibility.default_horizon}); this module states a lower bound
    and a textual rendering of the integer program over the
    time-extended network for inspection. *)

open Chronus_flow

val lower_bound : Instance.t -> int
(** A makespan every solution must reach: 0 for trivial instances, else 1;
    refined to 2 when the dependency relation at [t_0] chains two
    non-inert switches (they can provably not share the first step). *)

val render_ilp : ?horizon:int -> ?max_paths_per_flow:int -> Instance.t -> string
(** Program (3) spelled out for this instance: the objective, one
    capacity row (3a) per time-extended link in the window, the
    single-path rows (3b) and the integrality rows (3c). Cohort paths
    [P(f)] are enumerated (old/new rule choice per switch) and capped at
    [max_paths_per_flow] (default 16) per cohort, as the full set is
    exponential. *)
