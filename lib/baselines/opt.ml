open Chronus_flow
open Chronus_core
module Obs = Chronus_obs.Obs

let c_nodes = Obs.Counter.v "opt.nodes_expanded"
let c_prunes = Obs.Counter.v "opt.prunes"
let c_incumbent = Obs.Counter.v "opt.incumbent_improvements"
let s_solve = Obs.Span.v "opt.solve"

type outcome =
  | Optimal of Schedule.t
  | Feasible of Schedule.t
  | Infeasible
  | Unknown

type result = {
  outcome : outcome;
  makespan : int option;
  nodes_explored : int;
  elapsed : float;
}

exception Out_of_budget

let violation_time = function
  | Oracle.Congestion { time; _ }
  | Oracle.Loop { time; _ }
  | Oracle.Blackhole { time; _ } ->
      time

(* The DFS core of the iterative deepening. [tick] accounts a search
   node (and raises {!Out_of_budget}).
   [ck] is an incremental oracle session whose base tracks the schedule
   under construction — the search probes sibling subsets of the same
   parent schedule, the checker's best case. A violation at or below a
   frontier time is definitive: flips strictly later cannot influence
   flow behaviour that early.

   Every branch brackets its extension with [push]/[pop] on the normal
   return path, so [ck]'s base equals [sched] at each entry. When [tick]
   raises {!Out_of_budget} the unwinding skips the pops and the session
   is left mid-branch — the deepening's catcher abandons the checker
   entirely, so the dirty state is never observed. *)
let prune () = Obs.Counter.incr c_prunes

let violated_below report frontier =
  List.exists
    (fun v -> violation_time v <= frontier)
    report.Oracle.violations

let rec dfs ~inst ~tick ~ck t sched remaining bound =
  tick ();
  if remaining = [] then
    if Schedule.covers inst sched && (Oracle.Checker.base_report ck).Oracle.ok
    then Some sched
    else None
  else if t >= bound then None
  else if t = bound - 1 then begin
    (* Last step inside the bound: everything left must flip now. *)
    let adds = List.map (fun v -> (v, t)) remaining in
    let sched' =
      List.fold_left (fun s (v, t) -> Schedule.add v t s) sched adds
    in
    let report = Oracle.Checker.probe_list ck adds in
    if Schedule.covers inst sched' && report.Oracle.ok then Some sched'
    else None
  end
  else
    (* Choose the subset flipping at step [t]: binary DFS over the
       remaining switches. Violations strictly below [t] kill a branch
       during growth; violations at [t] are only final once the subset
       is closed (a same-step flip can still cure them). *)
    choose ~inst ~tick ~ck ~t ~bound sched [] remaining remaining

and choose ~inst ~tick ~ck ~t ~bound sched_acc committed remaining rest =
  match rest with
  | [] ->
      if violated_below (Oracle.Checker.base_report ck) t then begin
        prune ();
        None
      end
      else
        dfs ~inst ~tick ~ck (t + 1) sched_acc
          (List.filter (fun v -> not (List.mem v committed)) remaining)
          bound
  | v :: tl -> (
      tick ();
      let sched_v = Schedule.add v t sched_acc in
      let included =
        if violated_below (Oracle.Checker.probe ck v t) (t - 1) then begin
          prune ();
          None
        end
        else begin
          ignore (Oracle.Checker.push ck v t);
          let found =
            choose ~inst ~tick ~ck ~t ~bound sched_v (v :: committed)
              remaining tl
          in
          Oracle.Checker.pop ck;
          found
        end
      in
      match included with
      | Some _ as found -> found
      | None ->
          choose ~inst ~tick ~ck ~t ~bound sched_acc committed remaining tl)

let solve ?(budget = 500_000) ?(timeout = 60.0) ?horizon ?hint inst =
  Obs.Span.with_h s_solve @@ fun () ->
  let start = Sys.time () in
  let explored = ref 0 in
  let finish outcome =
    let makespan =
      match outcome with
      | Optimal s | Feasible s -> Some (Schedule.makespan s)
      | Infeasible | Unknown -> None
    in
    {
      outcome;
      makespan;
      nodes_explored = !explored;
      elapsed = Sys.time () -. start;
    }
  in
  if Instance.is_trivial inst then finish (Optimal Schedule.empty)
  else begin
    (* The upper bound comes from the caller's [hint] (a known-consistent
       schedule, typically the greedy's) when available; otherwise the
       polynomial greedy supplies it lazily. *)
    let greedy_result =
      lazy
        (match hint with
        | Some s -> Greedy.Scheduled s
        | None -> Greedy.schedule ~mode:Greedy.Analytic inst)
    in
    let upper =
      match (horizon, hint) with
      | Some h, _ -> h
      | None, Some s -> Schedule.makespan s
      | None, None -> (
          match Lazy.force greedy_result with
          | Greedy.Scheduled s -> Schedule.makespan s
          | Greedy.Infeasible _ -> Feasibility.default_horizon inst)
    in
    let lower = max 1 (Mutp.lower_bound inst) in
    let tick () =
      Obs.Counter.incr c_nodes;
      incr explored;
      if !explored > budget || Sys.time () -. start > timeout then
        raise Out_of_budget
    in
    let all = Instance.switches_to_update inst in
    (* One oracle session spans the whole deepening: each bound's DFS
       starts and (on a normal return) ends with the empty base, so the
       session carries its cohort cache across bounds. *)
    let ck = Oracle.Checker.create inst Schedule.empty in
    let deepen () =
      let rec at m =
        if m > upper then None
        else
          match dfs ~inst ~tick ~ck 0 Schedule.empty all m with
          | Some sched -> Some sched
          | None -> at (m + 1)
      in
      at lower
    in
    match deepen () with
    | Some sched ->
        Obs.Counter.incr c_incumbent;
        finish (Optimal sched)
    | None -> finish Infeasible
    | exception Out_of_budget -> (
        (* Only fall back on work already done: forcing a fresh greedy
           run here would defeat the budget. *)
        match hint with
        | Some s -> finish (Feasible s)
        | None ->
            if Lazy.is_val greedy_result then
              match Lazy.force greedy_result with
              | Greedy.Scheduled s -> finish (Feasible s)
              | Greedy.Infeasible _ -> finish Unknown
            else finish Unknown)
  end

