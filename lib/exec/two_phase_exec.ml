open Chronus_sim
open Chronus_flow
module Fiber = Chronus_fiber.Fiber
module Obs = Chronus_obs.Obs

let c_phases = Obs.Counter.v "exec.transition_phases"
let s_run = Obs.Span.v "exec.two_phase.run"
let p_phase = Obs.Point.v "exec.two_phase.phase"

type t = {
  result : Exec_env.result;
  phase1_done : Sim_time.t;
  phase2_done : Sim_time.t;
  rules_installed : int;
}

let old_tag = 1
let new_tag = 2

let install_final_rules env ~tag =
  let inst = env.Exec_env.inst in
  let dst = Instance.destination inst in
  let rec hops = function
    | v :: (w :: _ as rest) -> (v, w) :: hops rest
    | [ _ ] | [] -> []
  in
  let hops = hops inst.Instance.p_fin in
  List.iter
    (fun (v, w) ->
      Exec_env.dispatch env ~switch:v
        (Controller.Install
           {
             priority = 20;
             dst;
             tag_match = Flow_table.Tag tag;
             action = { Flow_table.set_tag = None; forward = Flow_table.Out w };
           }))
    hops;
  let at =
    Controller.barrier_all_wait env.Exec_env.controller
      ~switches:(List.map fst hops)
  in
  (at, List.length hops)

let flip_ingress env ~tag =
  let inst = env.Exec_env.inst in
  let src = Instance.source inst in
  Exec_env.dispatch env ~switch:src
    (Controller.Modify
       {
         dst = Instance.destination inst;
         tag_match = Flow_table.Any_tag;
         action =
           {
             Flow_table.set_tag = Some tag;
             forward = Flow_table.Out (Option.get (Instance.new_next inst src));
           };
       });
  Controller.barrier_wait env.Exec_env.controller ~switch:src

let run ?config ?seed ?faults inst =
  Obs.Span.with_h s_run @@ fun () ->
  let env =
    Exec_env.build ?config ?seed ?faults ~tag_initial:(Some old_tag) inst
  in
  let engine = Network.engine env.Exec_env.net in
  let cfg = env.Exec_env.config in
  let controller = env.Exec_env.controller in
  let t0 = Exec_env.update_start env in
  let dst = Instance.destination inst in
  let src = Instance.source inst in
  let phase1_done = ref 0 and phase2_done = ref 0 in
  let finished = ref None in
  let rules_installed = ref 0 in
  (* The whole two-phase protocol is one straight-line fiber. *)
  ignore
    (Fiber.spawn_root (Engine.fiber_runtime engine) (fun () ->
         Fiber.sleep_until t0;
         (* Phase one: version-2 rules, traffic still stamped with tag 1. *)
         let at, installed = install_final_rules env ~tag:new_tag in
         rules_installed := installed;
         phase1_done := at;
         Obs.Counter.incr c_phases;
         Obs.Point.emit p_phase
           [ ("phase", Obs.Point.Int 1); ("at_us", Obs.Point.Int at) ];
         Fiber.sleep_until at;
         (* Phase two: flip the ingress stamp; every packet from now on
            carries tag 2 and follows the new rules. *)
         let at = flip_ingress env ~tag:new_tag in
         phase2_done := at;
         Obs.Counter.incr c_phases;
         Obs.Point.emit p_phase
           [ ("phase", Obs.Point.Int 2); ("at_us", Obs.Point.Int at) ];
         (* Old-tag packets drain within the old path's total propagation
            time; then garbage-collect tag-1 rules. *)
         let drain_time =
           (Instance.init_delay inst * cfg.Exec_env.delay_unit)
           + Sim_time.msec 200
         in
         Fiber.sleep_until (at + drain_time);
         let old_transit =
           List.filter (fun v -> v <> dst && v <> src) inst.Instance.p_init
         in
         List.iter
           (fun v ->
             Exec_env.dispatch env ~switch:v
               (Controller.Remove { dst; tag_match = Flow_table.Tag old_tag }))
           old_transit;
         let at = Controller.barrier_all_wait controller ~switches:old_transit in
         finished := Some at)
      : unit Fiber.t);
  let horizon =
    t0
    + (Instance.init_delay inst * cfg.Exec_env.delay_unit)
    + Sim_time.sec 8
  in
  Engine.run ~until:horizon engine;
  let update_done =
    match !finished with Some at -> at | None -> horizon
  in
  let result = Exec_env.finish env ~update_done in
  {
    result;
    phase1_done = !phase1_done;
    phase2_done = !phase2_done;
    rules_installed = !rules_installed;
  }
