open Chronus_flow
open Chronus_core

(* The objective |T| is the schedule's makespan. *)
let test_objective () =
  Alcotest.(check int) "paper schedule objective" 4
    (Schedule.makespan Helpers.fig1_paper_schedule);
  Alcotest.(check int) "empty objective" 0 (Schedule.makespan Schedule.empty)

(* A solution is complete and oracle-consistent. *)
let test_is_solution () =
  let inst = Helpers.fig1 () in
  Alcotest.(check bool) "paper schedule solves" true
    (Oracle.is_consistent inst Helpers.fig1_paper_schedule);
  Alcotest.(check bool) "all-at-zero does not" false
    (Oracle.is_consistent inst (Helpers.all_at_zero inst));
  Alcotest.(check bool) "partial does not" false
    (Oracle.is_consistent inst (Schedule.of_list [ (2, 0) ]))

let test_bounds () =
  let inst = Helpers.fig1 () in
  Alcotest.(check int) "fig1 lower bound 2" 2 (Mutp.lower_bound inst);
  Alcotest.(check bool) "upper above lower" true
    (Feasibility.default_horizon inst >= Mutp.lower_bound inst);
  (* A one-step instance: ample capacity, no deletes (a delete can never
     happen at t0 because in-flight traffic would be blackholed). *)
  let g =
    Helpers.graph_of
      [ (0, 1, 2, 1); (1, 2, 2, 1); (1, 3, 2, 1); (3, 2, 2, 1) ]
  in
  let easy =
    Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1; 2 ]
      ~p_fin:[ 0; 1; 3; 2 ]
  in
  Alcotest.(check int) "easy lower bound 1" 1 (Mutp.lower_bound easy)

let test_render_ilp () =
  let text = Mutp.render_ilp (Helpers.fig1 ()) in
  let has sub =
    let n = String.length text and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub text i m = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "objective line" true (has "minimize |T|");
  Alcotest.(check bool) "capacity rows" true (has "(3a)");
  Alcotest.(check bool) "path rows" true (has "(3b)");
  Alcotest.(check bool) "integrality row" true (has "(3c)");
  Alcotest.(check bool) "mentions variables" true (has "x[f")

let test_feasibility_min_makespan () =
  let inst = Helpers.fig1 () in
  match Model_feasibility.min_makespan ~horizon:6 inst with
  | Some (m, witness) ->
      Alcotest.(check int) "optimum is 4" 4 m;
      Helpers.check_consistent "witness" inst witness
  | None -> Alcotest.fail "fig1 is feasible"

let test_fallback_completes () =
  let inst = Helpers.infeasible () in
  let { Fallback.schedule; clean } = Fallback.schedule inst in
  Alcotest.(check bool) "not clean" false clean;
  Alcotest.(check bool) "covers all updates" true
    (Schedule.covers inst schedule)

let test_fallback_clean_on_feasible () =
  let inst = Helpers.fig1 () in
  let { Fallback.schedule; clean } = Fallback.schedule inst in
  Alcotest.(check bool) "clean" true clean;
  Helpers.check_consistent "clean schedule" inst schedule

let test_fallback_never_loops () =
  (* Even on infeasible instances the best-effort schedule must not create
     forwarding loops or blackholes — only congestion. *)
  for seed = 200 to 219 do
    let inst = Helpers.instance_of_seed ~max_n:7 seed in
    let { Fallback.schedule; _ } = Fallback.schedule inst in
    let report = Oracle.evaluate inst schedule in
    List.iter
      (function
        | Oracle.Congestion _ -> ()
        | Oracle.Loop _ -> Alcotest.failf "seed %d: loop in fallback" seed
        | Oracle.Blackhole _ ->
            Alcotest.failf "seed %d: blackhole in fallback" seed)
      report.Oracle.violations
  done

let suite =
  ( "mutp",
    [
      Alcotest.test_case "objective" `Quick test_objective;
      Alcotest.test_case "solution admissibility" `Quick test_is_solution;
      Alcotest.test_case "bounds" `Quick test_bounds;
      Alcotest.test_case "ILP rendering" `Quick test_render_ilp;
      Alcotest.test_case "exhaustive optimum on fig1" `Slow
        test_feasibility_min_makespan;
      Alcotest.test_case "fallback completes infeasible instances" `Quick
        test_fallback_completes;
      Alcotest.test_case "fallback is clean on feasible instances" `Quick
        test_fallback_clean_on_feasible;
      Alcotest.test_case "fallback never loops or blackholes" `Slow
        test_fallback_never_loops;
    ] )
