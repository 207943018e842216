open Chronus_flow
open Chronus_core
open Chronus_baselines
open Chronus_topo
module Obs = Chronus_obs.Obs

let s_run = Obs.Span.v "trial.run"

type t = {
  inst : Instance.t;
  updates : int;
  chronus_clean : bool;
  chronus_congested_links : int;
  chronus_makespan : int;
  chronus_rules : int;
  opt_clean : bool;
  opt_makespan : int option;
  opt_proved : bool;
  or_rounds : int;
  or_clean : bool;
  or_congested_links : int;
  tp_rules : int;
}

let or_gap = 8

let run ?(with_opt = true) ~scale ~rng inst =
  Obs.Span.with_h s_run @@ fun () ->
  (* The polynomial engine is what the paper runs at scale; its results
     are still oracle-validated: Greedy redoes the work in exact mode when
     the final validation fails, which happens on about half of the
     random reroutes at 10-20 switches. *)
  let { Fallback.schedule = chronus_schedule; clean = chronus_clean } =
    Fallback.schedule ~mode:Greedy.Analytic inst
  in
  let chronus_report = Oracle.evaluate inst chronus_schedule in
  let opt_clean, opt_makespan, opt_proved =
    if not with_opt then (chronus_clean, None, false)
    else begin
      let hint = if chronus_clean then Some chronus_schedule else None in
      let r =
        Opt.solve ~budget:scale.Scale.opt_budget
          ~timeout:scale.Scale.opt_timeout ?hint inst
      in
      match r.Opt.outcome with
      | Opt.Optimal s -> (true, Some (Schedule.makespan s), true)
      | Opt.Feasible s -> (true, Some (Schedule.makespan s), false)
      | Opt.Infeasible | Opt.Unknown ->
          (* Execute the same best-effort schedule Chronus would. *)
          (chronus_clean, None, r.Opt.outcome = Opt.Infeasible)
    end
  in
  let or_result =
    Order_replacement.minimum_rounds ~budget:scale.Scale.or_budget inst
  in
  let rounds =
    match or_result.Order_replacement.rounds with
    | Some r -> r
    | None -> [ Order_replacement.replaceable_switches inst ]
  in
  let or_schedule =
    Order_replacement.schedule_of_rounds ~gap:or_gap
      ~jitter:(fun ~round:_ _ -> Rng.int rng or_gap)
      rounds
  in
  let or_report = Oracle.evaluate inst or_schedule in
  {
    inst;
    updates = Instance.update_count inst;
    chronus_clean;
    chronus_congested_links = List.length chronus_report.Oracle.congested;
    chronus_makespan = Schedule.makespan chronus_schedule;
    chronus_rules = Two_phase.chronus_rule_count inst;
    opt_clean;
    opt_makespan;
    opt_proved;
    or_rounds = List.length rounds;
    or_clean = or_report.Oracle.ok;
    or_congested_links = List.length or_report.Oracle.congested;
    tp_rules = (Two_phase.rule_count inst).Two_phase.transition_peak;
  }
