open Chronus_sim
open Chronus_flow
open Chronus_core
module Fiber = Chronus_fiber.Fiber
module Obs = Chronus_obs.Obs

let s_run = Obs.Span.v "exec.timed.run"
let c_retries = Obs.Counter.v "exec.retries"
let c_fallbacks = Obs.Counter.v "exec.fallbacks"

type path = Timed | Two_phase_fallback

let pp_path ppf = function
  | Timed -> Format.pp_print_string ppf "timed"
  | Two_phase_fallback -> Format.pp_print_string ppf "two-phase-fallback"

(* Retry policy: wait [ack_timeout] past a command's execution time
   (plus [backoff] per attempt) before re-sending, at most [max_retries]
   times; abandon the timed plan [deadline_slack] past the schedule's
   nominal completion. *)
let ack_timeout = Sim_time.msec 200
let backoff = Sim_time.msec 100
let max_retries = 3
let deadline_slack = Sim_time.sec 1

type t = {
  result : Exec_env.result;
  schedule : Schedule.t;
  clean : bool;
  path : path;
  retries : int;
  unacked : int;
}

(* The version tag of the emergency two-phase fallback. Timed runs build
   untagged environments, so tag-9 rules are inert until the ingress
   starts stamping. *)
let fallback_tag = 9

type progress = {
  mutable finished : Sim_time.t option;
  mutable pending : int;
  mutable retries : int;
  mutable fallen_back : bool;
  deadline : Sim_time.t;
}

let launch env schedule =
  let inst = env.Exec_env.inst in
  let engine = Network.engine env.Exec_env.net in
  let cfg = env.Exec_env.config in
  let rt = Engine.fiber_runtime engine in
  let t0 = Exec_env.update_start env in
  let dispatch_at = max 0 (t0 - Sim_time.msec 500) in
  let timed =
    List.filter_map
      (fun (u : Instance.update) ->
        Option.map
          (fun step -> (u, step))
          (Schedule.find u.Instance.switch schedule))
      (Instance.updates inst)
  in
  let acked : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let prog =
    {
      finished = None;
      pending = List.length timed;
      retries = 0;
      fallen_back = false;
      deadline =
        t0
        + (Schedule.makespan schedule * cfg.Exec_env.delay_unit)
        + deadline_slack;
    }
  in
  (* Emergency path on deadline miss: a two-phase update over the final
     path, version-tagged so half-installed timed state cannot capture
     in-flight traffic. Its own commands go through [dispatch] too, so it
     is best-effort under continuing faults — the monitor keeps score. *)
  let fallback () =
    prog.fallen_back <- true;
    Obs.Counter.incr c_fallbacks;
    let at, _ = Two_phase_exec.install_final_rules env ~tag:fallback_tag in
    Fiber.sleep_until at;
    let at = Two_phase_exec.flip_ingress env ~tag:fallback_tag in
    prog.finished <- Some at
  in
  (* One fiber per timed command: dispatch, await the ack with a
     timeout, re-send with linear backoff — the straight-line form of
     the old callback state machine. *)
  let update_fiber ((u : Instance.update), step) () =
    let box = Fiber.Mailbox.create rt in
    let exec_at = t0 + (step * cfg.Exec_env.delay_unit) in
    let settle at =
      if not (Hashtbl.mem acked u.Instance.switch) then begin
        Hashtbl.replace acked u.Instance.switch ();
        prog.pending <- prog.pending - 1;
        if prog.pending = 0 && not prog.fallen_back then
          prog.finished <- Some at
      end
    in
    let rec attempt n =
      Exec_env.dispatch env ~execute_at:exec_at
        ~on_ack:(fun at -> Fiber.Mailbox.send box at)
        ~switch:u.Instance.switch
        (Exec_env.modify_of_update inst u);
      let check_at =
        max (Engine.now engine) exec_at
        + ack_timeout
        + (n * backoff)
      in
      if check_at < prog.deadline && n < max_retries then
        match Fiber.Mailbox.recv_until ~deadline:check_at box with
        | Some at -> settle at
        | None ->
            if (not (Hashtbl.mem acked u.Instance.switch)) && not prog.fallen_back
            then begin
              prog.retries <- prog.retries + 1;
              Obs.Counter.incr c_retries;
              attempt (n + 1)
            end
            else
              (* Out of the retry loop; a late ack still settles the
                 books, exactly as the armed callback used to. *)
              settle (Fiber.Mailbox.recv box)
      else settle (Fiber.Mailbox.recv box)
    in
    attempt 0
  in
  ignore
    (Fiber.spawn_root rt (fun () ->
         Fiber.sleep_until dispatch_at;
         if timed = [] then prog.finished <- Some (Fiber.now ())
         else begin
           (* Children run in spawn order within this instant: every
              command is dispatched before the watcher posts the
              deadline. *)
           List.iter
             (fun cmd -> ignore (Fiber.spawn (update_fiber cmd) : unit Fiber.t))
             timed;
           ignore
             (Fiber.spawn (fun () ->
                  Fiber.sleep_until prog.deadline;
                  if prog.pending > 0 && not prog.fallen_back then fallback ())
               : unit Fiber.t)
         end)
      : unit Fiber.t);
  prog

let run ?config ?seed ?faults inst =
  Obs.Span.with_h s_run @@ fun () ->
  let { Fallback.schedule; clean } = Fallback.schedule inst in
  let env = Exec_env.build ?config ?seed ?faults ~tag_initial:None inst in
  let engine = Network.engine env.Exec_env.net in
  let cfg = env.Exec_env.config in
  let prog = launch env schedule in
  let horizon = prog.deadline + Sim_time.sec 5 in
  Engine.run ~until:horizon engine;
  if prog.finished = None then
    (* A late fallback needs room for its barriers and the tag drain. *)
    Engine.run
      ~until:
        (horizon
        + (Instance.init_delay inst * cfg.Exec_env.delay_unit)
        + Sim_time.sec 10)
      engine;
  let update_done =
    match prog.finished with Some at -> at | None -> horizon
  in
  let result = Exec_env.finish env ~update_done in
  {
    result;
    schedule;
    clean;
    path = (if prog.fallen_back then Two_phase_fallback else Timed);
    retries = prog.retries;
    unacked = prog.pending;
  }
