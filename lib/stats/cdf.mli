(** Empirical cumulative distribution functions — the curves of Fig. 11. *)

type t
(** An ECDF over float samples. *)

val of_samples : float list -> t
(** @raise Invalid_argument on the empty list. *)

val of_int_samples : int list -> t

val eval : t -> float -> float
(** [eval cdf x]: fraction of samples [<= x], in [[0, 1]]. *)

val inverse : t -> float -> float
(** [inverse cdf q] for [q] in [[0, 1]]: smallest sample [x] with
    [eval cdf x >= q]. *)

val points : t -> (float * float) list
(** The step points [(x, F(x))], one per distinct sample value, ascending. *)

val size : t -> int

