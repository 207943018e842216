open Chronus_flow

let test_paper_schedule_consistent () =
  let inst = Helpers.fig1 () in
  Helpers.check_consistent "paper schedule" inst Helpers.fig1_paper_schedule;
  Alcotest.(check bool) "is_consistent" true
    (Oracle.is_consistent inst Helpers.fig1_paper_schedule)

let test_all_at_zero_loops () =
  (* Fig. 2(a): updating every switch at t0 creates three transient
     forwarding loops. *)
  let inst = Helpers.fig1 () in
  let report = Oracle.evaluate inst (Helpers.all_at_zero inst) in
  let loops =
    List.filter
      (function Oracle.Loop _ -> true | _ -> false)
      report.Oracle.violations
  in
  Alcotest.(check int) "three loops" 3 (List.length loops);
  Alcotest.(check bool) "not ok" false report.Oracle.ok

let test_fig2b_congestion () =
  (* Fig. 2(b): v1 and v2 at t0, then v3, v4, v5 at t1 overloads the
     time-extended link v4(t1) -> v3(t2). *)
  let inst = Helpers.fig1 () in
  let sched = Schedule.of_list [ (1, 0); (2, 0); (3, 1); (4, 1); (5, 1) ] in
  let report = Oracle.evaluate inst sched in
  let congested_4_3 =
    List.exists
      (function
        | Oracle.Congestion { u = 4; v = 3; time = 1; load = 2; _ } -> true
        | _ -> false)
      report.Oracle.violations
  in
  Alcotest.(check bool) "v4(t1)->v3(t2) overloaded" true congested_4_3

let test_steady_state_loads () =
  (* Before any update, every old-path link carries exactly the demand at
     every step. *)
  let inst = Helpers.fig1 () in
  let loads = Oracle.link_loads inst Schedule.empty in
  Alcotest.(check bool) "some loads recorded" true (loads <> []);
  List.iter
    (fun ((u, v, _), load) ->
      Alcotest.(check int) (Printf.sprintf "load on %d->%d" u v) 1 load;
      Alcotest.(check bool)
        (Printf.sprintf "%d->%d on old path" u v)
        true
        (Chronus_graph.Path.mem_edge u v inst.Instance.p_init))
    loads

(* The cohort injected at [tau]: traced from the source. *)
let trace inst sched tau =
  Oracle.trace_from (Oracle.tracer inst) sched (Instance.source inst) tau

let test_trace_arrival_times () =
  let inst = Helpers.fig1 () in
  let cohort = trace inst Schedule.empty 0 in
  Alcotest.(check bool) "delivered" true (cohort.Oracle.outcome = Oracle.Delivered);
  Alcotest.(check (list (pair int int)))
    "visits at prefix delays"
    [ (1, 0); (2, 1); (3, 2); (4, 3); (5, 4); (6, 5) ]
    cohort.Oracle.visits

let test_trace_respects_schedule () =
  let inst = Helpers.fig1 () in
  let sched = Schedule.of_list [ (2, 0) ] in
  (* A cohort arriving at v2 after its flip takes the new link to v6. *)
  let cohort = trace inst sched 0 in
  Alcotest.(check (list (pair int int)))
    "diverted at v2"
    [ (1, 0); (2, 1); (6, 2) ]
    cohort.Oracle.visits;
  (* A cohort old enough to pass v2 before the flip follows the old path;
     unscheduled switches never flip (partial-schedule semantics). *)
  let old_cohort = trace inst sched (-3) in
  Alcotest.(check (list (pair int int)))
    "pre-flip cohort stays"
    [ (1, -3); (2, -2); (3, -1); (4, 0); (5, 1); (6, 2) ]
    old_cohort.Oracle.visits

let test_trace_from () =
  let inst = Helpers.fig1 () in
  let sched = Schedule.of_list [ (4, 0) ] in
  (* From v4 at t0 with v4 flipped: v4 -> v3 (new), v3 still old -> v4:
     the cohort revisits v4. *)
  let cohort = Oracle.trace_from (Oracle.tracer inst) sched 4 0 in
  Alcotest.(check bool)
    "loops back" true
    (cohort.Oracle.outcome = Oracle.Looped 4)

let test_blackhole_on_early_delete () =
  (* Deleting v1's rule while traffic still arrives blackholes it. *)
  let g = Helpers.unit_graph_of [ (0, 1); (1, 2); (0, 2) ] in
  let inst =
    Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1; 2 ] ~p_fin:[ 0; 2 ]
  in
  let bad = Schedule.of_list [ (0, 5); (1, 0) ] in
  let report = Oracle.evaluate inst bad in
  Alcotest.(check bool)
    "blackhole at v1" true
    (List.exists
       (function
         | Oracle.Blackhole { switch = 1; _ } -> true | _ -> false)
       report.Oracle.violations);
  (* Deleting only after the diverted flow has drained is fine. *)
  let good = Schedule.of_list [ (0, 0); (1, 3) ] in
  Helpers.check_consistent "drain before delete" inst good

let test_congested_link_count () =
  let inst = Helpers.infeasible () in
  let sched = Schedule.of_list [ (0, 0); (1, 4) ] in
  Alcotest.(check bool)
    "at least one congested time-extended link" true
    ((Oracle.evaluate inst sched).Oracle.congested <> [])

let test_peak_load () =
  let inst = Helpers.fig1 () in
  let report = Oracle.evaluate inst Helpers.fig1_paper_schedule in
  Alcotest.(check int) "peak load within capacity" 1 report.Oracle.peak_load

let test_infeasible_instance_has_no_schedule () =
  let inst = Helpers.infeasible () in
  Alcotest.(check bool)
    "exhaustive search finds nothing" true
    (Model_feasibility.find inst = None)

let suite =
  ( "oracle",
    [
      Alcotest.test_case "paper schedule is consistent" `Quick
        test_paper_schedule_consistent;
      Alcotest.test_case "all-at-t0 yields the three loops of Fig. 2(a)"
        `Quick test_all_at_zero_loops;
      Alcotest.test_case "Fig. 2(b) congestion reproduced" `Quick
        test_fig2b_congestion;
      Alcotest.test_case "steady-state loads" `Quick test_steady_state_loads;
      Alcotest.test_case "trace arrival times" `Quick
        test_trace_arrival_times;
      Alcotest.test_case "trace respects schedule" `Quick
        test_trace_respects_schedule;
      Alcotest.test_case "trace from a switch" `Quick test_trace_from;
      Alcotest.test_case "early delete blackholes" `Quick
        test_blackhole_on_early_delete;
      Alcotest.test_case "congested link count" `Quick
        test_congested_link_count;
      Alcotest.test_case "peak load" `Quick test_peak_load;
      Alcotest.test_case "infeasible fixture really is infeasible" `Slow
        test_infeasible_instance_has_no_schedule;
    ] )
