open Chronus_flow
open Chronus_core
open Chronus_baselines

let test_fig1_optimal () =
  let inst = Helpers.fig1 () in
  let r = Opt.solve inst in
  (match r.Opt.outcome with
  | Opt.Optimal sched ->
      Alcotest.(check int) "optimal makespan 4" 4 (Schedule.makespan sched);
      Helpers.check_consistent "optimal schedule" inst sched
  | _ -> Alcotest.fail "expected Optimal");
  Alcotest.(check (option int)) "makespan field" (Some 4) r.Opt.makespan

let test_trivial () =
  let g = Helpers.unit_graph_of [ (0, 1) ] in
  let inst =
    Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1 ] ~p_fin:[ 0; 1 ]
  in
  match (Opt.solve inst).Opt.outcome with
  | Opt.Optimal s -> Alcotest.(check int) "zero steps" 0 (Schedule.makespan s)
  | _ -> Alcotest.fail "trivial is optimal"

let test_infeasible () =
  let inst = Helpers.infeasible () in
  match (Opt.solve inst).Opt.outcome with
  | Opt.Infeasible -> ()
  | Opt.Optimal s -> Alcotest.failf "claimed optimal %a" Schedule.pp s
  | Opt.Feasible _ | Opt.Unknown -> Alcotest.fail "should prove infeasibility"

let test_budget_degrades_gracefully () =
  let inst = Helpers.fig1 () in
  (* Without a hint, an exhausted budget yields an honest Unknown... *)
  (match (Opt.solve ~budget:3 ~horizon:6 inst).Opt.outcome with
  | Opt.Unknown -> ()
  | Opt.Feasible s -> Helpers.check_consistent "fallback schedule" inst s
  | Opt.Optimal _ -> Alcotest.fail "cannot be proven optimal in 3 nodes"
  | Opt.Infeasible -> Alcotest.fail "fig1 is feasible");
  (* ...with one, the hint comes back as the Feasible fallback. *)
  match
    (Opt.solve ~budget:3 ~hint:Helpers.fig1_paper_schedule inst).Opt.outcome
  with
  | Opt.Feasible s -> Helpers.check_consistent "hint returned" inst s
  | Opt.Optimal _ -> Alcotest.fail "cannot be proven optimal in 3 nodes"
  | Opt.Infeasible | Opt.Unknown -> Alcotest.fail "hint should be reused"

let test_matches_exhaustive () =
  (* Both searches restricted to the same small makespan horizon so the
     naive enumeration stays tractable. *)
  let horizon = 7 in
  for seed = 0 to 11 do
    let inst = Helpers.instance_of_seed ~max_n:5 seed in
    let r = Opt.solve ~timeout:20.0 ~horizon inst in
    match (r.Opt.outcome, Model_feasibility.min_makespan ~horizon inst) with
    | Opt.Optimal s, Some (m, _) ->
        Alcotest.(check int)
          (Format.asprintf "seed %d optimum (%a)" seed Instance.pp inst)
          m (Schedule.makespan s)
    | Opt.Infeasible, None -> ()
    | Opt.Optimal s, None ->
        Alcotest.failf "seed %d: OPT found %a, exhaustive says infeasible"
          seed Schedule.pp s
    | Opt.Infeasible, Some (m, _) ->
        Alcotest.failf "seed %d: OPT says infeasible, exhaustive found %d"
          seed m
    | (Opt.Feasible _ | Opt.Unknown), _ -> () (* budget ran out: no claim *)
  done

let test_never_beats_greedy_downward () =
  (* OPT's makespan is at most the greedy's whenever both succeed. *)
  for seed = 50 to 69 do
    let inst = Helpers.instance_of_seed ~max_n:7 seed in
    match (Opt.solve ~budget:30_000 ~timeout:2.0 inst).Opt.outcome with
    | Opt.Optimal s -> (
        match Greedy.schedule inst with
        | Greedy.Scheduled g ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: opt <= greedy" seed)
              true
              (Schedule.makespan s <= Schedule.makespan g)
        | Greedy.Infeasible _ -> ())
    | _ -> ()
  done

let suite =
  ( "opt",
    [
      Alcotest.test_case "worked example solved optimally" `Quick
        test_fig1_optimal;
      Alcotest.test_case "trivial instance" `Quick test_trivial;
      Alcotest.test_case "infeasible instance proven" `Quick test_infeasible;
      Alcotest.test_case "budget exhaustion degrades gracefully" `Quick
        test_budget_degrades_gracefully;
      Alcotest.test_case "matches exhaustive enumeration" `Slow
        test_matches_exhaustive;
      Alcotest.test_case "never worse than the greedy" `Slow
        test_never_beats_greedy_downward;
    ] )
