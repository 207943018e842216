(* Reference model for Algorithm 4, the check for forwarding loops before
   updating a switch. The paper's check walks backwards along the solid
   (initial-path) links from the candidate's new next hop: meeting the
   candidate means the redirected flow would re-enter a switch it already
   crossed. The timed variant follows the first redirected cohort through
   the rules actually in force — what the time-extended formulation
   evaluates: an old segment that has already flipped can no longer close
   a loop. The shipped analytic check ([Chronus_core.Safety.analytic])
   refines the timed variant. *)

open Chronus_flow

(* [true] iff the candidate's new next hop lies strictly upstream of the
   candidate on the initial path — the configuration in which a transient
   loop is possible at all. Pure structure, ignores update times. *)
let structural inst ~candidate =
  match Instance.new_next inst candidate with
  | None -> false
  | Some w ->
      let rec upstream v =
        match Instance.old_prev inst v with
        | None -> false
        | Some x -> x = w || upstream x
      in
      upstream candidate

(* [true] iff updating the candidate at [time] would send the first
   redirected cohort around a loop, given the rules implied by [sched]
   plus the tentative update. *)
let timed inst sched ~candidate ~time =
  match Instance.new_next inst candidate with
  | None -> false
  | Some _ -> (
      let tentative = Schedule.add candidate time sched in
      let cohort = Model_trace.trace_from inst tentative candidate time in
      match cohort.Oracle.outcome with
      | Oracle.Looped _ -> true
      | Oracle.Delivered | Oracle.Dropped _ -> false)
