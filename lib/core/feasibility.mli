(** The default search horizon of the exact solvers.

    MUTP is NP-complete (Theorem 1); the branch-and-bound solver in
    [chronus_baselines.Opt] searches within this horizon unless told
    otherwise. The exhaustive enumeration the solvers are tested against
    is the model [test/model_feasibility.ml]. *)

open Chronus_flow

val default_horizon : Instance.t -> int
(** A makespan bound within which a feasible instance always has a
    solution: enough steps to update one switch at a time with a full
    drain pause in between. *)
