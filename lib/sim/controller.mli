(** The control plane: a logically centralised controller connected to
    every switch over an asynchronous channel with per-switch command
    latency — the source of the reordering that makes consistent updates
    hard. Supports plain flow-mods (applied on arrival), *timed* flow-mods
    carrying an execution timestamp (Time4 semantics: the switch applies
    the change at that exact instant, however early the command arrived),
    and OpenFlow barriers (the reply is sent once every command received
    before the barrier has been applied — Algorithm 5's synchronisation). *)

type t

type flow_mod =
  | Install of {
      priority : int;
      dst : int;
      tag_match : Flow_table.tag_match;
      action : Flow_table.action;
    }
  | Modify of {
      dst : int;
      tag_match : Flow_table.tag_match;
      action : Flow_table.action;
    }
  | Remove of { dst : int; tag_match : Flow_table.tag_match }
  | Install_prefix of {
      priority : int;
      prefix : int;
      len : int;
      tag_match : Flow_table.tag_match;
      action : Flow_table.action;
    }
      (** An aggregated base-forwarding rule — the output of
          [Table_compiler], installed by [Exec_env] preinstall. Update
          commands stay exact-match, so they always shadow these. *)

val apply_mod : Flow_table.t -> flow_mod -> unit
(** Apply a flow-mod to a table directly, with no channel in between: what
    a switch does with a delivered command, and how background state is
    preinstalled before an experiment starts. *)

val create :
  ?latency:(switch:int -> Sim_time.t) -> Network.t -> t
(** [latency] models the control channel's per-command delay (default:
    constant 1 ms). Called once per command and per barrier leg, so a
    randomised function yields the asynchrony of the paper's OR runs. *)

(** What the channel/switch pair does with a command — the hook
    [Chronus_faults] drives. [Deliver] is the normal path; [Lose] drops
    the command in the channel (it still counts as sent, but never
    arrives and never blocks a barrier); [Reject] means the switch
    processes but does not apply it (and never acks); [Crash f] means the
    switch reboots on receipt: instead of applying, it runs [f] (which
    restores the persisted table) and never acks. *)
type handling = Deliver | Lose | Reject | Crash of (unit -> unit)

val send :
  t ->
  ?execute_at:Sim_time.t ->
  ?latency:Sim_time.t ->
  ?process_delay:Sim_time.t ->
  ?handling:handling ->
  ?counted:bool ->
  ?ack:(Sim_time.t -> unit) ->
  switch:int ->
  flow_mod ->
  unit
(** Issue a command now. Without [execute_at] it is applied when it
    reaches the switch; with it, at [max arrival execute_at]. [latency]
    overrides this command's forward-leg delay (the default draws from
    the constructor's latency function); [process_delay] adds switch-side
    processing time after the execution stamp (a straggler);
    [handling] defaults to [Deliver]; [counted] (default true) controls
    whether the command increments {!commands_sent} — duplicates
    injected by the fault layer pass [false]; [ack], if given and the
    command is delivered, is called when the switch's acknowledgement
    reaches the controller (one reverse latency leg after application). *)

val commands_sent : t -> int

val peak_rules : t -> int
(** Largest total rule count across all switches observed right after any
    command application — the transition footprint of Fig. 9. *)

(** {1 Fiber-context synchronisation}

    The channel itself runs on [Chronus_fiber]: each switch is a fiber
    looping on an inbox, [send] is a timed mailbox delivery, and acks
    are scheduled by the switch fiber. Barriers suspend the calling
    fiber, which must itself run on the network engine's runtime. *)

val barrier_wait : t -> switch:int -> Sim_time.t
(** Issue an OFBarrierRequest now and suspend the calling fiber until
    the OFBarrierReply reaches the controller — once every command sent
    to [switch] before the barrier has been applied, plus the return
    leg. Returns the reply's arrival time; the caller resumes at that
    virtual instant. *)

val barrier_all_wait : t -> switches:int list -> Sim_time.t
(** Barrier every listed switch and suspend until the last reply;
    returns the latest reply time. With no switches, resumes at the
    current instant (after the events already queued for it) and
    returns it. *)
