(** A deterministic cooperative runtime on OCaml 5 effects handlers.

    Fibers are lightweight cooperative tasks multiplexed onto whatever
    discrete-event loop owns the virtual clock: the runtime never reads
    wall-clock time, never touches the OS scheduler, and orders every
    ready fiber by its spawn id, so a program that spawns the same
    fibers in the same order replays bit-identically — at any
    [CHRONUS_JOBS], on any host.

    The runtime is deliberately loop-agnostic: it is constructed from
    two closures, [now] (the virtual clock) and [schedule] (insert an
    event at an absolute virtual time), which in this repository are
    provided by [Chronus_sim.Engine] — itself a thin loop over the
    calendar [Event_queue]. The event loop calls {!drain} after every
    dispatched event; fibers woken by that event then run *at the same
    virtual instant*, before the next event fires. This is what lets
    the fiber rewrite of the controller channel reproduce the callback
    implementation's digests bit-for-bit.

    {b Scheduling discipline.} The ready queue is two batches, kept in
    growable arrays of fiber ids and resume thunks. Wakeups (spawns,
    mailbox sends, timer fires) append to the pending batch; when the
    running batch empties, the pending batch becomes the running batch,
    sorted by fiber id if it arrived out of id order (stable, so
    repeated wakeups of one fiber would keep their order). A fiber
    woken while a batch runs therefore waits for the next batch —
    starvation-free and deterministic.

    {b Waiting.} A fiber waits on exactly two things: the virtual clock
    ({!sleep_until}, or a deadline on {!Mailbox.recv_until}) and a
    {!Mailbox}. There is no join: a fiber that must hear from another
    receives on a mailbox that the other sends to, and code outside
    fiber context reads a fiber's outcome with {!poll} after the loop
    has drained it.

    A suspended fiber keeps its continuation in its own record, stamped
    with a per-fiber generation number. Each way out of a suspension —
    a wake, a timeout, a mailbox delivery, a cancel — fires only while
    the stamp still matches and bumps it when it does, so a fiber
    resumes exactly once per suspension, by whichever of them the event
    order reaches first; the others find a stale stamp and do
    nothing.

    {b Cancellation is structured.} {!cancel} marks the fiber and every
    fiber it spawned (transitively), then interrupts any suspension
    point — the fiber observes {!Cancelled} raised from its current
    [sleep]/[recv] and unwinds. A fiber that is merely ready
    observes it at its next suspension point.

    Labels [fiber.spawns], [fiber.context_switches],
    [fiber.mailbox_depth] (high-water) and [fiber.cancellations] are
    registered with [Chronus_obs]; see OBSERVABILITY.md. *)

type time = int
(** Virtual time — structurally [Chronus_sim.Sim_time.t] (integer
    microseconds); this library stays zero-dependency by not naming
    it. *)

exception Cancelled
(** Raised inside a fiber at its current (or next) suspension point
    once {!cancel} has been requested for it. *)

(** {1 The runtime} *)

type runtime
(** One scheduler instance: a ready queue plus the [now]/[schedule]
    closures of the event loop that drives it. Runtimes are
    independent; nested event loops (e.g. a simulation running inside
    a service worker) each get their own. *)

val runtime :
  now:(unit -> time) -> schedule:(time -> (unit -> unit) -> unit) -> runtime
(** [runtime ~now ~schedule] builds a runtime over an event loop.
    [schedule t k] must run [k] when the loop's clock reaches [t]
    (clamping past times to "now", as [Engine.at] does), and the loop
    must call {!drain} after every event it dispatches. *)

val drain : runtime -> unit
(** Run ready fibers (in id order, see above) until none is ready.
    Idempotent and re-entrancy-safe: calls from within a drain are
    no-ops. [Chronus_sim.Engine] calls this automatically; only a
    hand-rolled loop needs to. *)

type stats = {
  spawned : int;  (** fibers ever spawned on this runtime *)
  live : int;  (** spawned and not yet finished *)
  peak_live : int;  (** high-water mark of [live] *)
}

val stats : runtime -> stats

(** {1 Fibers} *)

type 'a t
(** A fiber computing a value of type ['a]. *)

val spawn_root : runtime -> (unit -> 'a) -> 'a t
(** Spawn from outside any fiber (set-up code, event thunks). The
    fiber starts at the next {!drain}. *)

val spawn : (unit -> 'a) -> 'a t
(** Spawn a child of the calling fiber ({!cancel} of the parent
    cascades to it). Must be called from fiber context. *)

val now : unit -> time
(** The event loop's virtual clock. *)

val poll : 'a t -> ('a, exn) result option
(** The fiber's value, or the exception ([Cancelled] included) that
    ended it; [None] while it runs. Non-blocking; callable from any
    context. *)

val cancel : 'a t -> unit
(** Request structured cancellation: the fiber and its descendants get
    {!Cancelled} at their current or next suspension point. Idempotent;
    a no-op on finished fibers. Callable from any context. *)

val sleep_until : time -> unit
(** Suspend until the virtual clock reaches the given absolute time.
    A time at or before [now ()] schedules at the current instant —
    i.e. resumes after everything already queued for this instant, the
    fiber idiom for [Engine.at engine (Engine.now engine)]. *)

val sleep : time -> unit
(** [sleep d] is [sleep_until (now () + d)] (negative [d] clamps
    to 0). *)

(** {1 Mailboxes}

    Unbounded FIFO channels. {!Mailbox.send} never blocks and is
    callable from plain event thunks — it is how the event world hands
    values to fibers. Receivers queue FIFO. *)

module Mailbox : sig
  type 'a t

  val create : runtime -> 'a t

  val send : 'a t -> 'a -> unit
  (** Deliver to the longest-waiting live receiver (which becomes
      ready at the current instant), else enqueue. Callable from any
      context. *)

  val recv : 'a t -> 'a
  (** Take the oldest queued value, or suspend until one is sent. *)

  val recv_until : deadline:time -> 'a t -> 'a option
  (** [recv] bounded by a virtual-time deadline; [None] on expiry. *)

  val try_recv : 'a t -> 'a option
  (** Non-blocking take; callable from any context. *)
end
