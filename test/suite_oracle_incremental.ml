(* Differential tests for the incremental oracle: every [Checker] probe,
   commit, push/pop and retarget must produce a report structurally
   identical to [Oracle.evaluate] run from scratch on the same schedule —
   the equivalence obligation stated in oracle.mli — and the cohort walk
   must match its list-tracer model ([Model_trace]). Plus golden replays
   of the schedulers, pinning the exact schedules the pre-incremental
   implementation produced. *)

open Chronus_flow
open Chronus_core
open Chronus_baselines
open QCheck
module O = Oracle
module Rng = Chronus_topo.Rng

let count = 40

(* Reports contain only immediate data (ints, variants, tuples, lists),
   and every list field is order-canonical, so structural equality is the
   right notion of "identical". *)
let report_eq (a : O.report) (b : O.report) = a = b

let add_all flips sched =
  List.fold_left (fun s (v, t) -> Schedule.add v t s) sched flips

(* A random partial base schedule: each switch independently scheduled
   (or not) at a small random time. *)
let random_partial rng inst =
  List.fold_left
    (fun acc v ->
      if Rng.bool rng then Schedule.add v (Rng.in_range rng 0 9) acc else acc)
    Schedule.empty
    (Instance.switches_to_update inst)

let unscheduled inst base =
  List.filter
    (fun v -> not (Schedule.mem v base))
    (Instance.switches_to_update inst)

(* Probes of every unscheduled switch, at an early, a mid-window and a
   beyond-the-horizon time, must match a from-scratch evaluation. *)
let probe_matches =
  Test.make ~count ~name:"probe = evaluate from scratch"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 17 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create inst base in
      let horizon =
        (if Schedule.is_empty base then 0 else Schedule.max_time base) + 3
      in
      List.for_all
        (fun v ->
          List.for_all
            (fun t ->
              report_eq (O.Checker.probe ck v t)
                (O.evaluate inst (Schedule.add v t base)))
            [ 0; Rng.in_range rng 1 6; horizon ])
        (unscheduled inst base))

(* Repeating a probe (memoised) must return the identical report. *)
let probe_idempotent =
  Test.make ~count ~name:"repeated probe is stable"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 19 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create inst base in
      List.for_all
        (fun v ->
          let t = Rng.in_range rng 0 7 in
          let first = O.Checker.probe ck v t in
          report_eq first (O.Checker.probe ck v t))
        (unscheduled inst base))

(* Growing the base one commit at a time: after every commit the promoted
   report — and the cached [base_report] — must equal a from-scratch
   evaluation of the grown schedule, and subsequent probes must be
   differentially correct against the *new* base. *)
let commit_matches =
  Test.make ~count ~name:"commit sequence tracks evaluate"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 23 ] in
      let ck = O.Checker.create inst Schedule.empty in
      let _, ok =
        List.fold_left
          (fun (sched, ok) v ->
            let t = Rng.in_range rng 0 8 in
            let sched' = Schedule.add v t sched in
            let committed = O.Checker.commit ck v t in
            let scratch = O.evaluate inst sched' in
            ( sched',
              ok && report_eq committed scratch
              && report_eq (O.Checker.base_report ck) scratch
              && Schedule.equal (O.Checker.base ck) sched' ))
          (Schedule.empty, true)
          (Instance.switches_to_update inst)
      in
      ok)

(* Probing several flips at once (the branch-and-bound's last-step
   closure) must match evaluating them added together. *)
let probe_list_matches =
  Test.make ~count ~name:"probe_list = evaluate of joint schedule"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 29 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create inst base in
      match unscheduled inst base with
      | [] -> true
      | free ->
          let flips =
            List.filteri (fun i _ -> i < 3) free
            |> List.map (fun v -> (v, Rng.in_range rng 0 7))
          in
          report_eq
            (O.Checker.probe_list ck flips)
            (O.evaluate inst (add_all flips base)))

(* push/pop bracketing: pushes behave like commits, pops restore the
   saved base exactly (schedule, report, and differential correctness of
   probes issued after the pop). *)
let push_pop_matches =
  Test.make ~count ~name:"push/pop restores the base"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 31 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create inst base in
      let before = O.Checker.base_report ck in
      match unscheduled inst base with
      | [] -> true
      | v :: rest ->
          let tv = Rng.in_range rng 0 6 in
          let pushed = O.Checker.push ck v tv in
          let ok1 =
            report_eq pushed (O.evaluate inst (Schedule.add v tv base))
          in
          let ok2 =
            match rest with
            | [] -> true
            | w :: _ ->
                let tw = Rng.in_range rng 0 6 in
                let deep = O.Checker.push ck w tw in
                let good =
                  report_eq deep
                    (O.evaluate inst
                       (Schedule.add w tw (Schedule.add v tv base)))
                in
                O.Checker.pop ck;
                good
                && report_eq (O.Checker.base_report ck) pushed
                && Schedule.equal (O.Checker.base ck) (Schedule.add v tv base)
          in
          O.Checker.pop ck;
          let ok3 =
            report_eq (O.Checker.base_report ck) before
            && Schedule.equal (O.Checker.base ck) base
          in
          let ok4 =
            report_eq
              (O.Checker.probe ck v (tv + 1))
              (O.evaluate inst (Schedule.add v (tv + 1) base))
          in
          ok1 && ok2 && ok3 && ok4)

(* A commit between a push and its pop has no frame to land in: [pop]
   would restore the pre-push base and silently drop it. The session
   refuses it and stays usable. *)
let test_commit_under_push () =
  let inst = Chronus_topo.Scenario.fig1_example () in
  match Instance.switches_to_update inst with
  | v :: w :: _ ->
      let ck = O.Checker.create inst Schedule.empty in
      ignore (O.Checker.push ck v 0 : O.report);
      Alcotest.check_raises "commit with an outstanding push"
        (Invalid_argument "Oracle.Checker.commit: outstanding push frames")
        (fun () -> ignore (O.Checker.commit ck w 1 : O.report));
      Alcotest.(check bool) "the pushed base is intact" true
        (Schedule.equal (O.Checker.base ck) (Schedule.add v 0 Schedule.empty));
      O.Checker.pop ck;
      ignore (O.Checker.commit ck w 1 : O.report);
      Alcotest.(check bool) "commit after the pop" true
        (report_eq (O.Checker.base_report ck)
           (O.evaluate inst (Schedule.add w 1 Schedule.empty)))
  | _ -> Alcotest.fail "fig1 updates at least two switches"

(* retarget re-points a pooled session at another instance over the same
   graph: afterwards the session must be indistinguishable from a fresh
   [create inst' Schedule.empty] — base report and probes alike — and
   retargeting back must restore the original judgements. The reverse
   move (p_init and p_fin swapped) is a genuinely different instance on
   the same physical graph, exactly the service pool's situation. *)
let retarget_matches =
  Test.make ~count ~name:"retarget = fresh create on the new instance"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 41 ] in
      let ck = O.Checker.create inst (random_partial rng inst) in
      let inst' =
        Instance.create ~graph:inst.Instance.graph
          ~demand:inst.Instance.demand ~p_init:inst.Instance.p_fin
          ~p_fin:inst.Instance.p_init
      in
      O.Checker.retarget ck inst';
      let fresh v t = O.evaluate inst' (Schedule.add v t Schedule.empty) in
      let ok1 =
        report_eq (O.Checker.base_report ck) (O.evaluate inst' Schedule.empty)
        && Schedule.is_empty (O.Checker.base ck)
        && List.for_all
             (fun v ->
               let t = Rng.in_range rng 0 7 in
               report_eq (O.Checker.probe ck v t) (fresh v t))
             (Instance.switches_to_update inst')
      in
      O.Checker.retarget ck inst;
      ok1
      && report_eq (O.Checker.base_report ck) (O.evaluate inst Schedule.empty)
      && List.for_all
           (fun v ->
             let t = Rng.in_range rng 0 7 in
             report_eq (O.Checker.probe ck v t)
               (O.evaluate inst (Schedule.add v t Schedule.empty)))
           (Instance.switches_to_update inst))

(* retarget ~background swaps the cross-flow steady load along with the
   instance: the session must match one created with that background
   from the start, on the base and on probes — also when the retargeted
   session had a populated probe cache and a different background. *)
let retarget_background_matches =
  Test.make ~count ~name:"retarget ~background = fresh create with background"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 43 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create ~background:(fun u _ -> u mod 2) inst base in
      List.iter
        (fun v -> ignore (O.Checker.probe ck v (Rng.in_range rng 0 7)))
        (unscheduled inst base);
      let bg u v = (u + (2 * v)) mod 2 in
      O.Checker.retarget ~background:bg ck inst;
      let ck' = O.Checker.create ~background:bg inst Schedule.empty in
      report_eq (O.Checker.base_report ck) (O.Checker.base_report ck')
      && List.for_all
           (fun v ->
             let t = Rng.in_range rng 0 7 in
             report_eq (O.Checker.probe ck v t) (O.Checker.probe ck' v t))
           (Instance.switches_to_update inst))

(* The oracle's one cohort walk against the list-tracer model: random
   instances, random partial schedules, every switch as the start and a
   spread of start steps — on one reused tracer, so stale scratch state
   between traces would show. *)
let trace_from_matches_model =
  Test.make ~count ~name:"trace_from = list-tracer model"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 47 ] in
      let tracer = O.tracer inst in
      let nodes = Chronus_graph.Graph.nodes inst.Instance.graph in
      List.for_all
        (fun _ ->
          let sched = random_partial rng inst in
          List.for_all
            (fun v ->
              List.for_all
                (fun t ->
                  let got = O.trace_from tracer sched v t in
                  let want = Model_trace.trace_from inst sched v t in
                  got.O.visits = want.O.visits
                  && got.O.outcome = want.O.outcome
                  && got.O.injected = want.O.injected)
                [ Rng.in_range rng (-6) 0; Rng.in_range rng 0 12 ])
            nodes)
        [ 1; 2; 3 ])

(* --- Golden replays -----------------------------------------------------

   Schedules produced by the schedulers before the incremental oracle
   landed, dumped from the pre-change tree. The checker is a pure
   performance substrate: greedy, fallback and branch-and-bound must
   still produce these exact schedules. *)

let sched_t = Alcotest.(list (pair int int))

let greedy_exact inst =
  match Greedy.schedule ~mode:Greedy.Exact inst with
  | Greedy.Scheduled s -> `Scheduled (Schedule.to_list s)
  | Greedy.Infeasible { partial; remaining } ->
      `Infeasible (Schedule.to_list partial, remaining)

let golden_greedy =
  [
    (1, [ (1, 0); (2, 3); (3, 4); (4, 7) ]);
    (7, [ (0, 0); (3, 0); (1, 3); (4, 3); (5, 5); (2, 6) ]);
    (23, [ (1, 0); (3, 0); (2, 1); (4, 1); (5, 4) ]);
    (123, [ (0, 0); (3, 0); (1, 1); (2, 2); (4, 2); (5, 4); (6, 5) ]);
    (777, [ (1, 0); (0, 3); (2, 3) ]);
    (2024, [ (0, 0); (1, 1); (2, 3); (3, 5) ]);
    (4242, [ (0, 0); (1, 1) ]);
    (9001, [ (0, 0); (1, 0); (2, 3) ]);
    (31415, [ (2, 0); (3, 0); (4, 2); (5, 4) ]);
  ]

let golden_opt_makespan =
  [
    (1, 8); (7, 7); (23, 5); (123, 6); (777, 4); (2024, 6); (4242, 2);
    (9001, 4); (31415, 5);
  ]

let test_golden_greedy () =
  (match greedy_exact (Helpers.fig1 ()) with
  | `Scheduled s ->
      Alcotest.check sched_t "fig1 greedy schedule unchanged"
        [ (2, 0); (1, 1); (3, 1); (4, 2); (5, 3) ]
        s
  | `Infeasible _ -> Alcotest.fail "fig1 unexpectedly infeasible");
  List.iter
    (fun (seed, golden) ->
      match greedy_exact (Helpers.instance_of_seed seed) with
      | `Scheduled s ->
          Alcotest.check sched_t
            (Printf.sprintf "seed %d greedy schedule unchanged" seed)
            golden s
      | `Infeasible _ ->
          Alcotest.failf "seed %d unexpectedly infeasible" seed)
    golden_greedy;
  (* The one infeasible seed: the partial schedule and leftovers are
     pinned too, as is the fallback's completion of them. *)
  match greedy_exact (Helpers.instance_of_seed 271828) with
  | `Scheduled _ -> Alcotest.fail "seed 271828 unexpectedly feasible"
  | `Infeasible (partial, remaining) ->
      Alcotest.check sched_t "seed 271828 partial unchanged"
        [ (2, 0); (3, 3); (4, 4) ]
        partial;
      Alcotest.(check (list int)) "seed 271828 remaining unchanged" [ 0; 1 ]
        remaining

let test_golden_fallback () =
  List.iter
    (fun (seed, golden) ->
      let { Fallback.schedule = s; clean } =
        Fallback.schedule (Helpers.instance_of_seed seed)
      in
      Alcotest.check sched_t
        (Printf.sprintf "seed %d fallback schedule unchanged" seed)
        golden (Schedule.to_list s);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d fallback clean" seed)
        true clean)
    golden_greedy;
  let { Fallback.schedule = s; clean } =
    Fallback.schedule (Helpers.instance_of_seed 271828)
  in
  Alcotest.check sched_t "seed 271828 fallback schedule unchanged"
    [ (2, 0); (3, 3); (4, 4); (0, 5); (1, 7) ]
    (Schedule.to_list s);
  Alcotest.(check bool) "seed 271828 fallback not clean" false clean

(* Analytic mode, as the Figs. 7-11 trials run it: the schedule, the
   candidate checks and the waits (an Exact redo's included), dumped
   from the tree whose checks still built a drain view of every
   tentative schedule. The nine seeds land on their Exact schedules
   above; the long chains are Fig. 10's shape at 300-600 switches. *)
let golden_analytic_counts =
  [
    (1, 24, 2); (7, 37, 2); (23, 18, 1); (123, 40, 1); (777, 9, 1);
    (2024, 22, 2); (4242, 4, 0); (9001, 9, 2); (31415, 15, 2);
  ]

let golden_analytic_chains =
  [
    ( 1,
      300,
      [
        (59, 0); (60, 2); (61, 5); (62, 8); (63, 11); (64, 13); (65, 14);
        (66, 15); (67, 18);
      ],
      143,
      6 );
    ( 2,
      450,
      [
        (8, 0); (9, 1); (10, 2); (11, 5); (12, 6); (13, 7); (14, 8); (15, 11);
        (16, 12);
      ],
      97,
      2 );
    ( 3,
      600,
      [
        (459, 0); (460, 2); (461, 3); (462, 4); (463, 7); (464, 10);
        (465, 12); (466, 13); (467, 14);
      ],
      121,
      4 );
  ]

let check_analytic what inst golden cands waits =
  match Greedy.schedule_with_stats ~mode:Greedy.Analytic inst with
  | Greedy.Scheduled s, stats ->
      Alcotest.check sched_t
        (what ^ " analytic schedule unchanged")
        golden (Schedule.to_list s);
      Alcotest.(check int)
        (what ^ " candidates checked unchanged")
        cands stats.Greedy.candidates_checked;
      Alcotest.(check int) (what ^ " waits unchanged") waits stats.Greedy.waits
  | Greedy.Infeasible _, _ -> Alcotest.failf "%s unexpectedly infeasible" what

let test_golden_analytic () =
  List.iter
    (fun (seed, cands, waits) ->
      check_analytic
        (Printf.sprintf "seed %d" seed)
        (Helpers.instance_of_seed seed)
        (List.assoc seed golden_greedy)
        cands waits)
    golden_analytic_counts;
  List.iter
    (fun (seed, n, golden, cands, waits) ->
      let inst =
        Chronus_topo.Scenario.long_chain ~rng:(Rng.make seed)
          (Chronus_topo.Scenario.spec ~capacity_choices:[ 2 ] n)
      in
      check_analytic (Printf.sprintf "chain %d (n=%d)" seed n) inst golden
        cands waits)
    golden_analytic_chains

let test_golden_opt () =
  let fig1 = Opt.solve ~budget:200_000 ~timeout:10.0 (Helpers.fig1 ()) in
  (match fig1.Opt.outcome with
  | Opt.Optimal s ->
      Alcotest.check sched_t "fig1 optimal schedule unchanged"
        [ (2, 0); (1, 1); (3, 1); (4, 2); (5, 3) ]
        (Schedule.to_list s)
  | _ -> Alcotest.fail "fig1 no longer proved optimal");
  List.iter
    (fun (seed, golden) ->
      let r =
        Opt.solve ~budget:100_000 ~timeout:10.0
          (Helpers.instance_of_seed seed)
      in
      match r.Opt.outcome with
      | Opt.Optimal s ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d optimal makespan unchanged" seed)
            golden (Schedule.makespan s)
      | _ -> Alcotest.failf "seed %d no longer proved optimal" seed)
    golden_opt_makespan;
  let r =
    Opt.solve ~budget:100_000 ~timeout:10.0 (Helpers.instance_of_seed 271828)
  in
  Alcotest.(check bool) "seed 271828 opt outcome unchanged" true
    (match r.Opt.outcome with
    | Opt.Unknown | Opt.Feasible _ -> true
    | Opt.Optimal _ | Opt.Infeasible -> false)

let suite =
  let name, qtests =
    Helpers.qsuite "oracle-incremental"
      [
        probe_matches;
        probe_idempotent;
        commit_matches;
        probe_list_matches;
        push_pop_matches;
        retarget_matches;
        retarget_background_matches;
        trace_from_matches_model;
      ]
  in
  ( name,
    qtests
    @ [
        Alcotest.test_case "commit refused under push frames" `Quick
          test_commit_under_push;
        Alcotest.test_case "golden greedy schedules" `Quick test_golden_greedy;
        Alcotest.test_case "golden fallback schedules" `Quick
          test_golden_fallback;
        Alcotest.test_case "golden analytic schedules and counts" `Quick
          test_golden_analytic;
        Alcotest.test_case "golden opt makespans" `Slow test_golden_opt;
      ] )
