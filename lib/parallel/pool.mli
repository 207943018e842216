(** A dependency-free fan-out over OCaml 5 domains.

    The experiment harness fans independent seeded trials out across
    domains; every function here preserves input order in its output, so
    a parallel run is bit-identical to a sequential one as long as the
    tasks themselves are independent (which per-trial RNG derivation
    guarantees — see [Chronus_topo.Rng.derive]).

    Work is distributed dynamically: each domain claims the next input
    from a shared atomic cursor, so a few slow tasks do not idle the
    other domains. If any task raises, no further inputs are started and
    the lowest-indexed exception is re-raised in the calling domain.

    Each call spawns [jobs - 1] domains, runs tasks in the calling domain
    alongside them, and joins them all before returning, so no domain
    outlives its batch. A task may itself call into this module; the
    nested call spawns its own domains.

    With [jobs = 1] (or a single-element input) everything runs in the
    calling domain with no spawns at all, so stack traces, printf
    debugging and determinism-sensitive tests behave exactly as in
    pre-multicore code. *)

val default_jobs : unit -> int
(** Worker count used when [?jobs] is omitted: the [CHRONUS_JOBS]
    environment variable when set (must be a positive integer, else
    [Invalid_argument]), otherwise [Domain.recommended_domain_count ()]. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map f xs] is [List.map f xs] computed on [jobs] domains.
    Output order matches input order regardless of completion order. *)

val parallel_init : ?jobs:int -> int -> (int -> 'a) -> 'a list
(** [parallel_init n f] is [List.init n f] computed on [jobs] domains;
    the idiom for fanning out [n] seeded trials. *)
