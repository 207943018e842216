(** Fig. 10: running time of the schedulers as the network grows to
    thousands of switches. Chronus runs its polynomial greedy (analytic
    checks, no oracle in the loop); OR's exact branch and bound and OPT
    run under the paper's 60-second cap and report a time-out beyond it. *)

type timing = Seconds of float | Capped of float
(** [Capped c]: did not finish within [c] seconds. *)

type row = {
  switches : int;
  updates : int;
  chronus : timing;
  or_exact : timing;
  opt : timing;
}

val run : ?jobs:int -> ?scale:Scale.t -> unit -> row list
(** [jobs] is the domain count for the trial fan-out (default
    {!Chronus_parallel.Pool.default_jobs}); any value yields the same
    rows. *)

val print : row list -> unit
val name : string
