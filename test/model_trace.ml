(* Reference model for [Chronus_flow.Oracle.trace_from]: the list tracer
   the oracle used before its array contexts. A cohort at switch [v] at
   step [t] follows [v]'s rule in force at [t] — the new next hop iff the
   schedule flips [v] at or before [t], else the old one — read straight
   off the instance and the schedule, with a hash set of visited
   switches. *)

open Chronus_flow

let rule_at inst sched v t =
  match Schedule.find v sched with
  | Some update_time when t >= update_time -> Instance.new_next inst v
  | Some _ | None -> Instance.old_next inst v

let trace_from inst sched start injected =
  let dst = Instance.destination inst in
  let visited = Hashtbl.create 16 in
  let rec step v t visits =
    Hashtbl.replace visited v ();
    if v = dst then
      { Oracle.injected; visits = List.rev visits; outcome = Oracle.Delivered }
    else
      match rule_at inst sched v t with
      | None ->
          { Oracle.injected; visits = List.rev visits; outcome = Oracle.Dropped v }
      | Some w ->
          let t' = t + Chronus_graph.Graph.delay inst.Instance.graph v w in
          if Hashtbl.mem visited w then
            {
              Oracle.injected;
              visits = List.rev ((w, t') :: visits);
              outcome = Oracle.Looped w;
            }
          else step w t' ((w, t') :: visits)
  in
  step start injected [ (start, injected) ]

let trace inst sched injected =
  trace_from inst sched (Instance.source inst) injected
