module Fiber = Chronus_fiber.Fiber

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

type handling = Deliver | Lose | Reject | Crash of (unit -> unit)

(* What the control channel delivers into a switch's inbox: the command
   itself plus what the fault layer decided about it and when the switch
   (its clock error already folded in) applies it. *)
type message = {
  m_mod : flow_mod;
  m_handling : handling;
  m_ack : (Sim_time.t -> unit) option;
  m_applied_at : Sim_time.t;
}

type t = {
  net : Network.t;
  rt : Fiber.runtime;
  latency : switch:int -> Sim_time.t;
  (* Latest completion time of any command sent to each switch; a
     barrier must wait for the ones issued before it. *)
  outstanding : (int, Sim_time.t) Hashtbl.t;
  (* One fiber per switch, spawned on first contact, looping on its
     inbox. *)
  inboxes : (int, message Fiber.Mailbox.t) Hashtbl.t;
  mutable sent : int;
  mutable peak_rules : int;
}

let create ?(latency = fun ~switch:_ -> Sim_time.msec 1) net =
  {
    net;
    rt = Engine.fiber_runtime (Network.engine net);
    latency;
    outstanding = Hashtbl.create 16;
    inboxes = Hashtbl.create 16;
    sent = 0;
    peak_rules = Network.total_rules net;
  }

let apply_mod table = function
  | Install { priority; dst; tag_match; action } ->
      ignore (Flow_table.install table ~priority ~dst ~tag_match action)
  | Modify { dst; tag_match; action } ->
      ignore (Flow_table.modify_actions table ~dst ~tag_match action)
  | Remove { dst; tag_match } ->
      ignore (Flow_table.remove table ~dst ~tag_match)
  | Install_prefix { priority; prefix; len; tag_match; action } ->
      ignore (Flow_table.install_prefix table ~priority ~prefix ~len ~tag_match action)

let apply t ~switch mod_ =
  apply_mod (Network.table t.net switch) mod_;
  t.peak_rules <- max t.peak_rules (Network.total_rules t.net)

(* Only the latest completion matters: a barrier's request arrives no
   earlier than [now], so it waits for [max request_arrival latest],
   and every completion before the latest one is dominated by it. *)
let record_outstanding t switch time =
  match Hashtbl.find_opt t.outstanding switch with
  | Some latest when latest >= time -> ()
  | _ -> Hashtbl.replace t.outstanding switch time

(* The switch: one fiber looping on its inbox. Each message is already
   stamped with its application time — the channel delivers it exactly
   then, so the fiber applies it at the virtual instant it wakes. *)
let rec serve t ~switch inbox : unit =
  let m = Fiber.Mailbox.recv inbox in
  (match m.m_handling with
  | Deliver -> apply t ~switch m.m_mod
  | Reject -> ()
  | Crash restore -> restore ()
  | Lose -> ());
  (match (m.m_handling, m.m_ack) with
  | Deliver, Some f ->
      (* The ack rides the reverse control-channel leg. *)
      let reply = m.m_applied_at + t.latency ~switch in
      Engine.at (Network.engine t.net) reply (fun () -> f reply)
  | _ -> ());
  serve t ~switch inbox

let inbox_for t switch =
  match Hashtbl.find_opt t.inboxes switch with
  | Some box -> box
  | None ->
      let box = Fiber.Mailbox.create t.rt in
      Hashtbl.replace t.inboxes switch box;
      ignore
        (Fiber.spawn_root t.rt (fun () -> serve t ~switch box) : unit Fiber.t);
      box

let send t ?execute_at ?latency ?(process_delay = 0) ?(handling = Deliver)
    ?(counted = true) ?ack ~switch mod_ =
  if counted then t.sent <- t.sent + 1;
  match handling with
  | Lose -> ()
  | _ ->
      let engine = Network.engine t.net in
      let forward =
        match latency with Some l -> l | None -> t.latency ~switch
      in
      let arrival = Engine.now engine + forward in
      let applied_at =
        match execute_at with
        | None -> arrival
        | Some stamp -> max arrival stamp
      in
      let applied_at = applied_at + process_delay in
      record_outstanding t switch applied_at;
      let inbox = inbox_for t switch in
      Engine.at engine applied_at (fun () ->
          Fiber.Mailbox.send inbox
            { m_mod = mod_; m_handling = handling; m_ack = ack; m_applied_at = applied_at })

(* Schedule the OFBarrierReply for [switch]: the request reaches the
   switch after one latency leg, is processed once every command issued
   before it has been applied, and the reply rides the return leg. [k]
   runs at the reply's arrival, which it receives. *)
let on_barrier_reply t ~switch k =
  let engine = Network.engine t.net in
  let request_arrival = Engine.now engine + t.latency ~switch in
  let processed =
    match Hashtbl.find_opt t.outstanding switch with
    | Some latest -> max request_arrival latest
    | None -> request_arrival
  in
  let reply_arrival = processed + t.latency ~switch in
  Engine.at engine reply_arrival (fun () -> k reply_arrival)

let barrier_wait t ~switch =
  let box = Fiber.Mailbox.create t.rt in
  on_barrier_reply t ~switch (Fiber.Mailbox.send box);
  Fiber.Mailbox.recv box

let barrier_all_wait t ~switches =
  let box = Fiber.Mailbox.create t.rt in
  (match switches with
  | [] ->
      let engine = Network.engine t.net in
      Engine.after engine 0 (fun () -> Fiber.Mailbox.send box (Engine.now engine))
  | _ ->
      let pending = ref (List.length switches) in
      let latest = ref 0 in
      List.iter
        (fun switch ->
          on_barrier_reply t ~switch (fun at ->
              latest := max !latest at;
              decr pending;
              if !pending = 0 then Fiber.Mailbox.send box !latest))
        switches);
  Fiber.Mailbox.recv box

let commands_sent t = t.sent

let peak_rules t = t.peak_rules
