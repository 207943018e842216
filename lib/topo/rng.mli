(** Seeded deterministic randomness for workload generation. Every
    experiment takes an explicit seed so that runs are reproducible. *)

type t

val make : int -> t
(** Independent generator from a seed. *)

val derive : int -> int list -> t
(** [derive seed lane] is an independent generator addressed by the
    coordinate path [lane] under [seed] — e.g. [derive seed [7; n; i]]
    for trial [i] of the [n]-switch cell of Fig. 7. Derivation reads no
    shared state, so parallel workers can each rebuild exactly the
    stream their trial would have seen sequentially. *)

val split : t -> t
(** A fresh generator derived from (and advancing) this one — use to give
    sub-experiments independent streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val in_range : t -> int -> int -> int
(** [in_range t lo hi] is uniform in [[lo, hi]] inclusive. *)

val float : t -> float -> float
val bool : t -> bool

val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on the empty list. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k l] draws [k] elements without replacement (all of [l] if
    [k >= List.length l]); order is random. *)
