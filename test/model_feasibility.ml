(* Reference model: bounded exhaustive search over timed schedules —
   the ground truth the polynomial algorithms and the branch-and-bound
   solver are tested against, and the reference implementation of "solve
   the integer program by enumeration". Exponential in the number of
   updates; use only on small instances. Times are searched below
   [horizon], by default [Chronus_core.Feasibility.default_horizon]. *)

open Chronus_flow

let default_horizon = Chronus_core.Feasibility.default_horizon

(* Enumerate time assignments for the update switches with all times in
   [0, bound); stop at the first oracle-consistent one. *)
let search inst bound =
  let switches = Instance.switches_to_update inst in
  let rec assign sched = function
    | [] -> if Oracle.is_consistent inst sched then Some sched else None
    | v :: rest ->
        let rec try_time t =
          if t >= bound then None
          else
            match assign (Schedule.add v t sched) rest with
            | Some _ as found -> found
            | None -> try_time (t + 1)
        in
        try_time 0
  in
  assign Schedule.empty switches

let find ?horizon inst =
  let bound =
    match horizon with Some h -> h | None -> default_horizon inst
  in
  if Instance.is_trivial inst then Some Schedule.empty else search inst bound

let min_makespan ?horizon inst =
  if Instance.is_trivial inst then Some (0, Schedule.empty)
  else begin
    let bound =
      match horizon with Some h -> h | None -> default_horizon inst
    in
    let rec widen makespan =
      if makespan > bound then None
      else
        match search inst makespan with
        | Some sched -> Some (makespan, sched)
        | None -> widen (makespan + 1)
    in
    widen 1
  end
