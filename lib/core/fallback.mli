(** Best-effort scheduling for infeasible instances.

    When no congestion- and loop-free schedule exists, the experiments
    (Figs. 7 and 8 count exactly these cases) still need *some* timed
    schedule to execute and measure. The fallback re-runs the greedy with
    the capacity constraints relaxed ({!Greedy.schedule} with
    [relax_congestion]): the result covers every switch and may overload
    links. In [Exact] mode (the default) it never misroutes traffic; in
    [Analytic] mode the relaxed schedule is never validated and may also
    loop or blackhole. Should even that leave switches unplaced, they
    are appended after a full drain pause in reverse final-path
    order. *)

open Chronus_flow

type result = {
  schedule : Schedule.t;  (** complete; may violate capacity *)
  clean : bool;  (** [true] when the greedy succeeded outright *)
}

val schedule : ?mode:Greedy.mode -> Instance.t -> result
(** Greedy first; on infeasibility, extend as described. The result always
    covers every switch the instance updates. Each greedy run and the
    drain-pause completion pass open their own oracle sessions. *)
