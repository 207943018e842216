(** Update-service experiment: throughput and tail latency of the
    transactional update manager versus the offered update rate.

    Each row fixes an offered rate of [r] requests per processing round
    and drives [Chronus_service.Service] for several rounds over a
    shared random WAN carrying unit-demand flows on min-hop routes.
    Every request fails one random link of a random flow's current path
    and asks for the min-hop detour, so requests naturally contend for
    the WAN's chords: as [r] grows, more footprints collide and the
    serialized and denied columns climb while per-request latency
    stretches — the saturation behaviour the figure exists to show.

    The request stream is derived from coordinates keyed by the rate
    {e value} and round index, and the service itself is deterministic
    at any job count, so every column except the wall-clock ones
    (throughput, p50/p99 latency) is bit-identical at any
    [CHRONUS_JOBS] — [test/suite_service.ml] asserts this, and the
    bench's determinism digest drops exactly those columns (and
    [full_evals]), like the other wall-measured figures' timings. *)

type row = {
  offered_per_round : int;  (** the x-axis: requests submitted per round *)
  rounds : int;
  flows : int;  (** flows sharing the WAN *)
  submitted : int;  (** [offered_per_round * rounds] *)
  committed : int;
  serialized : int;
      (** requests that waited out at least one conflicting batch *)
  serialized_rate : float;  (** [serialized /. submitted]; deterministic *)
  denied : int;  (** door denials plus denied and aborted transactions *)
  batches : int;  (** admission batches across all rounds *)
  full_evals : int;
      (** from-scratch oracle evaluations the cell cost — checker-pool
          misses only, now that transactions run over pooled persistent
          sessions. Depends on pool scheduling (a cold pool misses once
          per concurrently active worker), so this column joins the
          wall-clock ones outside the determinism digest. *)
  full_evals_per_txn : float;
      (** [full_evals /. max 1 committed]; the bench asserts this stays
          strictly below 1 *)
  mean_makespan : float;
      (** mean schedule makespan of committed non-trivial transactions *)
  throughput_per_s : float;  (** committed transactions per wall second *)
  p50_ms : float;  (** submit-to-verdict latency percentiles, wall ms *)
  p99_ms : float;
}

val name : string

val run :
  ?jobs:int -> ?scale:Scale.t -> ?rates:int list -> unit -> row list
(** [rates] defaults to [[1; 4]] at tiny scale and [[1; 2; 4; 8; 16]]
    otherwise. The WAN has 12 sites and 6 flows at tiny scale, 32 sites
    and 16 flows otherwise; rounds scale with [scale.instances]. *)

val print : row list -> unit
