(** Process-global, Domain-safe observability: counters, gauges, span
    timers and an optional JSONL trace sink.

    Every metric is identified by a dotted label ([greedy.rounds],
    [sim.queue_high_water], …) registered in one process-global registry,
    so values accumulated on the task-pool workers of
    [Chronus_parallel.Pool] aggregate into the same cells as the calling
    domain's. The full label vocabulary emitted by this repository is
    documented in [OBSERVABILITY.md] (and [test/suite_obs.ml] fails if
    code and document drift apart).

    Two invariants the rest of the system relies on:

    - {b Metrics observe, never branch.} Nothing in this module returns
      information that instrumented code uses to make a decision, so
      enabling or disabling any part of it cannot change experiment
      results. The bench binary and the test suite assert byte-identical
      experiment rows with tracing on and off.
    - {b Domain safety.} All cells are [Atomic]s (the trace sink
      serialises writes with a [Mutex]), so concurrent updates from task
      pool workers never tear.

    Timestamps come from [CLOCK_MONOTONIC] via a local C stub
    ({!clock_ns}) — no third-party dependency, no allocation per
    reading. *)

val clock_ns : unit -> int
(** Monotonic clock in nanoseconds (arbitrary epoch). Allocation-free. *)

(** {1 Metric cells} *)

(** Monotonically increasing event counts ([greedy.candidate_evals],
    [opt.nodes_expanded], …). *)
module Counter : sig
  type t

  val v : string -> t
  (** [v label] returns the process-global counter registered under
      [label], creating it on first use. Idempotent: every call with the
      same label yields the same cell.
      @raise Invalid_argument if [label] is already registered as a
      different metric kind. *)

  val incr : ?by:int -> t -> unit
  (** Add [by] (default 1). Lock-free; safe from any domain. *)

  val value : t -> int
end

(** High-water marks ([sim.queue_high_water]): [observe] keeps the
    maximum of all values seen since the last {!reset}. *)
module Gauge : sig
  type t

  val v : string -> t
  (** Same registration contract as {!Counter.v}. *)

  val observe : t -> int -> unit
  (** Record [x]; the cell retains [max x previous]. *)

  val value : t -> int
end

(** Accumulating wall-clock timers. Each completed span adds one
    observation — count, total and max duration are kept per label. When
    the trace sink is enabled, each completion additionally emits one
    [span] trace record carrying its [dur_ns]. *)
module Span : sig
  type t

  type stat = { count : int; total_ns : int; max_ns : int }

  val v : string -> t
  (** Same registration contract as {!Counter.v}. *)

  val with_h : t -> (unit -> 'a) -> 'a
  (** [with_h span f] times [f ()] against {!clock_ns} and records the
      duration, also when [f] raises (the exception is re-raised with
      its backtrace preserved). Spans nest freely: each [with_h] is an
      independent observation, so an enclosing span's total includes its
      inner spans' time. *)

end

(** Named instant events that only exist on the trace
    ([exec.two_phase.phase]). Registration makes the label visible to
    {!all_labels} so the documentation test covers trace-only labels
    too. *)
module Point : sig
  type t

  type field = Int of int | Float of float | String of string | Bool of bool

  val v : string -> t
  (** Same registration contract as {!Counter.v}. *)

  val emit : t -> (string * field) list -> unit
  (** Emit one [point] trace record with the given fields. A no-op
      (beyond one atomic load) when the trace sink is disabled. *)
end

(** {1 The JSONL trace sink}

    When enabled, every span completion and every {!Point.emit} appends
    one JSON object per line to the sink file. The record schema
    ([chronus-trace/1]) is documented in [OBSERVABILITY.md]; every
    record carries at least [ts] (ns since trace start, monotonic),
    [domain] (the emitting domain's id), [kind] ([meta], [span] or
    [point]), [label], and a [fields] object. *)
module Trace : sig
  val set_path : string option -> unit
  (** Programmatically open (truncating) or close the sink. The
      environment variable [CHRONUS_TRACE=file.jsonl] performs
      [set_path (Some file)] at program start; [set_path None] closes
      and flushes the current sink. Opening writes one [meta] record
      with the schema version. *)

  val path : unit -> string option
end

(** {1 Registry-wide operations} *)

type value =
  | Counter of int
  | Gauge of int
  | Span of Span.stat

type snapshot = (string * value) list
(** Sorted by label. {!Point}s carry no value and do not appear. *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff before after] subtracts counter/gauge-as-max/span values
    label-wise and drops labels that saw no activity — the per-figure
    tables of [bench/main.exe --metrics] are produced this way. Gauges
    are high-water marks, not rates: a gauge appears in the diff with
    [after]'s value whenever it grew. *)

val all_labels : unit -> (string * [ `Counter | `Gauge | `Span | `Point ]) list
(** Every label registered so far (including trace-only points),
    sorted. *)

val reset : unit -> unit
(** Zero all cells. Registrations (and the trace sink) survive. Used by
    tests to isolate assertions; production code never calls it. *)

val print_table : snapshot -> unit
(** Render a snapshot as the aligned per-label table shown by
    [--metrics]. *)
