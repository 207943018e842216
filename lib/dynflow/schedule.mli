(** Timed update schedules: a time point for each switch (the solution
    [{v_i, t_j}] of Algorithm 2). Times are non-negative integers measured
    in the discrete steps of the dynamic-flow model; [t = 0] is the current
    time step [t_0]. *)

open Chronus_graph

type t

val empty : t

val of_list : (Graph.node * int) list -> t
(** @raise Invalid_argument on duplicate switches or negative times. *)

val to_list : t -> (Graph.node * int) list
(** Sorted by (time, switch). *)

val add : Graph.node -> int -> t -> t
(** @raise Invalid_argument if the switch is already scheduled or the time
    is negative. *)

val mem : Graph.node -> t -> bool
val find : Graph.node -> t -> int option
val size : t -> int
val is_empty : t -> bool

val switches : t -> Graph.node list

val max_time : t -> int
(** Latest update time; [-1] for the empty schedule. *)

val makespan : t -> int
(** Number of time steps [|T|] spanned by the update: [max_time + 1]
    (the paper's objective counts steps from [t_0]); [0] when empty. *)

val at : int -> t -> Graph.node list
(** Switches updated at a given time, sorted. *)

val covers : Instance.t -> t -> bool
(** All switches that the instance requires to update are scheduled. *)

val fold : (Graph.node -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f s init] folds [f switch time] over the entries in increasing
    switch order, without materialising an intermediate list — the
    oracle folds over every candidate schedule it evaluates. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
