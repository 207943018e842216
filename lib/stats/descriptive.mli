(** Descriptive statistics over float samples. All functions raise
    [Invalid_argument] on an empty sample unless stated otherwise. *)

val mean : float list -> float
val variance : float list -> float
(** Population variance. *)

val minimum : float list -> float
val maximum : float list -> float
val total : float list -> float
(** Sum; 0. on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [[0, 100]], linear interpolation between
    order statistics. *)

val median : float list -> float

val of_ints : int list -> float list
