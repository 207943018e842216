open Chronus_flow
open Chronus_core

let test_loop_check_structural () =
  let inst = Helpers.fig1 () in
  (* v4's dashed link points to v3, which is upstream of v4 on the old
     path — the loop configuration. v2's points to the destination. *)
  Alcotest.(check bool) "v4 structural loop" true
    (Model_loop_check.structural inst ~candidate:4);
  Alcotest.(check bool) "v5 structural loop" true
    (Model_loop_check.structural inst ~candidate:5);
  Alcotest.(check bool) "v2 no structural loop" false
    (Model_loop_check.structural inst ~candidate:2);
  Alcotest.(check bool) "v1 no structural loop" false
    (Model_loop_check.structural inst ~candidate:1)

let test_loop_check_timed () =
  let inst = Helpers.fig1 () in
  (* The paper's walkthrough: v4 loops if flipped at t1 (v3 still old)
     but is safe at t2 once v3 flipped at t1. *)
  let sched_t1 = Schedule.of_list [ (2, 0) ] in
  Alcotest.(check bool) "v4 at t1 loops" true
    (Model_loop_check.timed inst sched_t1 ~candidate:4 ~time:1);
  let sched_t2 = Schedule.of_list [ (2, 0); (3, 1) ] in
  Alcotest.(check bool) "v4 at t2 safe" false
    (Model_loop_check.timed inst sched_t2 ~candidate:4 ~time:2)

let test_safety_verdicts () =
  let inst = Helpers.fig1 () in
  let dview = Drain.view (Drain.make inst) Schedule.empty in
  let tracer = Oracle.tracer inst in
  (* v3 at t0 congests (v5, v6): redirected flow meets the old stream. *)
  (match Safety.analytic ~tracer inst dview Schedule.empty ~time:0 3 with
  | Safety.Would_congest (5, 6, 1) -> ()
  | other ->
      Alcotest.failf "expected congestion on (5,6) at t=1, got %a"
        Safety.pp_verdict other);
  (* v2 at t0 is safe, and the oracle agrees. *)
  Alcotest.(check bool) "v2 analytic safe" true
    (Safety.is_safe
       (Safety.analytic ~tracer inst dview Schedule.empty ~time:0 2));
  Alcotest.(check bool) "v2 exact safe" true
    (Safety.is_safe
       (Safety.of_report
          (Oracle.evaluate inst (Schedule.add 2 0 Schedule.empty))));
  (* v4 at t0 loops. *)
  (match Safety.analytic ~tracer inst dview Schedule.empty ~time:0 4 with
  | Safety.Would_loop _ -> ()
  | other -> Alcotest.failf "expected loop, got %a" Safety.pp_verdict other)

let test_safety_delete_gating () =
  let g = Helpers.unit_graph_of [ (0, 1); (1, 2); (0, 2) ] in
  let inst =
    Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1; 2 ] ~p_fin:[ 0; 2 ]
  in
  let drain = Drain.make inst in
  let tracer = Oracle.tracer inst in
  (* Deleting v1 before anything diverted its traffic must wait. *)
  (match
     Safety.analytic ~tracer inst
       (Drain.view drain Schedule.empty)
       Schedule.empty ~time:0 1
   with
  | Safety.Not_drained -> ()
  | other -> Alcotest.failf "expected Not_drained, got %a" Safety.pp_verdict other);
  (* Once v0 has flipped at t0, v1 is drained from t1 on. *)
  let sched = Schedule.of_list [ (0, 0) ] in
  Alcotest.(check bool) "drained at t1" true
    (Safety.is_safe
       (Safety.analytic ~tracer inst (Drain.view drain sched) sched ~time:1 1))

let test_greedy_on_fig1 () =
  let inst = Helpers.fig1 () in
  (match Greedy.schedule ~mode:Greedy.Exact inst with
  | Greedy.Scheduled sched ->
      Helpers.check_consistent "greedy schedule" inst sched;
      Alcotest.(check bool) "covers" true (Schedule.covers inst sched);
      (* The exhaustive optimum for this instance is 4 steps; the greedy
         must achieve it (it is the paper's own walkthrough). *)
      Alcotest.(check int) "makespan 4" 4 (Schedule.makespan sched);
      Alcotest.(check (list int)) "v2 goes first" [ 2 ] (Schedule.at 0 sched)
  | Greedy.Infeasible _ -> Alcotest.fail "fig1 is feasible")

let test_greedy_analytic_on_fig1 () =
  let inst = Helpers.fig1 () in
  match Greedy.schedule ~mode:Greedy.Analytic inst with
  | Greedy.Scheduled sched ->
      Helpers.check_consistent "analytic schedule" inst sched
  | Greedy.Infeasible _ -> Alcotest.fail "fig1 is feasible"

let test_greedy_trivial () =
  let g = Helpers.unit_graph_of [ (0, 1) ] in
  let p = [ 0; 1 ] in
  let inst = Instance.create ~graph:g ~demand:1 ~p_init:p ~p_fin:p in
  match Greedy.schedule inst with
  | Greedy.Scheduled s ->
      Alcotest.(check bool) "empty schedule" true (Schedule.is_empty s)
  | Greedy.Infeasible _ -> Alcotest.fail "trivial is schedulable"

let test_greedy_detects_infeasible () =
  let inst = Helpers.infeasible () in
  (match Greedy.schedule ~mode:Greedy.Exact inst with
  | Greedy.Infeasible { remaining; _ } ->
      Alcotest.(check bool) "something remains" true (remaining <> [])
  | Greedy.Scheduled s ->
      Alcotest.failf "claimed schedulable: %a" Schedule.pp s);
  match Greedy.schedule ~mode:Greedy.Analytic inst with
  | Greedy.Infeasible _ -> ()
  | Greedy.Scheduled s ->
      (* The analytic engine may only accept it if the oracle does. *)
      Helpers.check_consistent "analytic claimed consistent" inst s

let test_greedy_waits_for_drain () =
  (* 0-1-2-3 to 0-2-3 with a slow tail: v0 can flip immediately only if
     capacity admits both streams; with capacity 2 on the tail it does. *)
  let g =
    Helpers.graph_of
      [ (0, 1, 1, 1); (1, 2, 1, 1); (2, 3, 2, 3); (0, 2, 1, 1) ]
  in
  let inst =
    Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1; 2; 3 ]
      ~p_fin:[ 0; 2; 3 ]
  in
  match Greedy.schedule ~mode:Greedy.Exact inst with
  | Greedy.Scheduled sched ->
      Helpers.check_consistent "tail capacity 2" inst sched
  | Greedy.Infeasible _ -> Alcotest.fail "feasible with roomy tail"

let test_stats () =
  let inst = Helpers.fig1 () in
  let _, stats = Greedy.schedule_with_stats inst in
  Alcotest.(check bool) "examined some steps" true (stats.Greedy.steps_examined >= 1);
  Alcotest.(check bool) "checked candidates" true
    (stats.Greedy.candidates_checked >= 5)

let suite =
  ( "greedy",
    [
      Alcotest.test_case "structural loop check (Alg. 4)" `Quick
        test_loop_check_structural;
      Alcotest.test_case "timed loop check follows the walkthrough" `Quick
        test_loop_check_timed;
      Alcotest.test_case "safety verdicts" `Quick test_safety_verdicts;
      Alcotest.test_case "deletes gated by drain" `Quick
        test_safety_delete_gating;
      Alcotest.test_case "greedy solves the worked example" `Quick
        test_greedy_on_fig1;
      Alcotest.test_case "analytic greedy solves it too" `Quick
        test_greedy_analytic_on_fig1;
      Alcotest.test_case "trivial instance" `Quick test_greedy_trivial;
      Alcotest.test_case "infeasible instance detected" `Quick
        test_greedy_detects_infeasible;
      Alcotest.test_case "capacity headroom enables immediate flip" `Quick
        test_greedy_waits_for_drain;
      Alcotest.test_case "scheduler statistics" `Quick test_stats;
    ] )
