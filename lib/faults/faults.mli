(** Deterministic, seed-driven fault injection for the executor stack.

    Chronus's premise is that switches flip rules at exact synchronised
    times; the timed-SDN literature (Time4, "Timed Consistent Network
    Updates") evaluates precisely what happens when they do not. This
    module models the three failure axes those papers measure:

    - {b clock error} per switch — a constant offset, a bounded drift
      rate, and per-flip jitter — applied to the execution timestamp of
      every timed flow-mod;
    - {b control-channel faults} — extra delay, loss, duplication and
      reordering of controller→switch commands;
    - {b switch faults} — update rejection, straggling (slow rule
      installation), and crash-restart reverting the switch to its
      installed table.

    Every draw comes from the repository's splittable, coordinate-
    addressed {!Chronus_topo.Rng} — no wall clock, no global state — so
    a (seed, config) pair replays bit-identically, on any domain, in
    any trial order. A configuration with all magnitudes zero is a
    provable no-op: the engine still draws, but every answer is "no
    fault", so instrumented executors behave exactly as if the engine
    were absent (property-tested in [test/suite_faults.ml]).

    The single injection point is [Chronus_exec.Exec_env.dispatch]:
    each command asks the engine for one {!fate} and, when carrying an
    execution timestamp, one {!Engine.clock_error}. Nothing else in the
    system consults this module. *)

open Chronus_sim

(** Per-switch clock model. Magnitudes, not values: each switch draws
    its own offset in [[-offset_us, offset_us]] and drift rate in
    [[-drift_ppm, drift_ppm]] once (stable for the run), plus a fresh
    jitter draw in [[-jitter_us, jitter_us]] per scheduled flip. *)
type clock = {
  offset_us : Sim_time.t;  (** constant per-switch clock offset bound *)
  drift_ppm : int;
      (** bounded drift: error grows by up to this many microseconds per
          second of scheduled time *)
  jitter_us : Sim_time.t;  (** independent per-flip scheduling jitter *)
}

(** Control-channel fault rates. Probabilities are per command. *)
type channel = {
  delay_p : float;  (** chance of an extra forward-leg delay *)
  extra_delay_us : Sim_time.t;  (** its magnitude bound, drawn uniform *)
  loss_p : float;  (** command silently dropped by the channel *)
  duplicate_p : float;  (** a second copy arrives independently later *)
  reorder_p : float;
      (** command pushed behind later traffic: it additionally waits a
          full [extra_delay_us] window, so commands sent after it can
          overtake *)
}

(** Switch misbehaviour rates. Probabilities are per received command. *)
type switch_f = {
  reject_p : float;  (** command processed but not applied, never acked *)
  straggle_p : float;  (** switch applies late *)
  straggle_us : Sim_time.t;  (** processing delay bound of a straggler *)
  crash_p : float;
      (** switch crashes on receipt: the command is not applied and the
          flow table reverts to the snapshot taken at network build time
          (the installed table); no ack is sent *)
}

type config = { clock : clock; channel : channel; switches : switch_f }

val zero : config
(** All magnitudes and probabilities zero — the provable no-op. *)

val drift : config
(** Clock error only: 10 ms offsets, 200 ppm drift, 5 ms jitter. *)

val lossy : config
(** Faulty control channel: extra delay, loss, duplication, reordering;
    perfect clocks and well-behaved switches. *)

val chaos : config
(** Everything at once: drifting clocks, the lossy channel, and switches
    that reject, straggle and crash-restart. *)

val of_preset : string -> config
(** [of_preset name] for [name] one of ["none"], ["drift"], ["lossy"],
    ["chaos"] (the CLI's [--faults] vocabulary).
    @raise Invalid_argument on anything else. *)

val preset_names : string list

val with_clock_error : Sim_time.t -> config -> config
(** [with_clock_error e c] sets both the per-switch offset bound and the
    per-flip jitter bound to [e] (the CLI's [--clock-error], and the
    x-axis of the robustness experiment). [e = 0] clears them. *)

val pp : Format.formatter -> config -> unit

(** What the channel and the receiving switch do with one command. All
    fields are independent draws; a zero-magnitude config always yields
    the fate with every flag [false] and every delay [0]. *)
type fate = {
  lost : bool;
  duplicated : bool;
  extra_delay_us : Sim_time.t;  (** channel-level extra forward delay *)
  rejected : bool;
  straggle_us : Sim_time.t;  (** switch-side processing delay *)
  crashed : bool;
}

(** A fault engine: one per executor run, seeded from the run's seed so
    that fault draws are reproducible by construction. *)
module Engine : sig
  type t

  val create : ?seed:int -> ?lane:int list -> config -> t
  (** [create ~seed ~lane config] addresses this engine's streams at the
      coordinate path [lane] under [seed] (see
      {!Chronus_topo.Rng.derive}); per-switch clock parameters get their
      own sub-coordinates, so switch [v]'s offset does not depend on
      which commands were sent before. Defaults: [seed = 1],
      [lane = []]. *)

  val config : t -> config

  val clock_error : t -> switch:int -> at:Sim_time.t -> Sim_time.t
  (** The signed scheduling error switch [switch] commits on a flip
      scheduled at absolute simulated time [at]: its constant offset,
      plus drift proportional to [at], plus fresh jitter. Zero for a
      zero-magnitude clock config. *)

  val command_fate : t -> switch:int -> fate
  (** Draw the channel and switch behaviour for one command. Consumes
      the engine's command stream (deterministic given the creation
      coordinates and the call sequence). *)
end
