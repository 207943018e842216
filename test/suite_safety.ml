open Chronus_flow
open Chronus_core

(* Direct tests of the Safety engines and the stream-walk bookkeeping. *)

let inst () = Helpers.fig1 ()

let test_exact_agrees_with_oracle () =
  (* The exact verdict for a candidate is Safe iff the tentative schedule
     is violation-free. *)
  let inst = inst () in
  List.iter
    (fun v ->
      let report = Oracle.evaluate inst (Schedule.add v 0 Schedule.empty) in
      Alcotest.(check bool)
        (Printf.sprintf "v%d verdict matches oracle" v)
        report.Oracle.ok
        (Safety.is_safe (Safety.of_report report)))
    (Instance.switches_to_update inst)

let test_analytic_never_accepts_loops () =
  (* Whenever analytic says Safe for a single first flip, the oracle finds
     no loop or blackhole in the tentative schedule (congestion may need
     the multi-stream view, but misrouting may not slip through). *)
  for seed = 300 to 339 do
    let inst = Helpers.instance_of_seed seed in
    let dview = Drain.view (Drain.make inst) Schedule.empty in
    let tracer = Oracle.tracer inst in
    List.iter
      (fun v ->
        if
          Safety.is_safe
            (Safety.analytic ~tracer inst dview Schedule.empty ~time:0 v)
        then begin
          let tentative = Schedule.add v 0 Schedule.empty in
          let report = Oracle.evaluate inst tentative in
          List.iter
            (function
              | Oracle.Congestion _ -> ()
              | Oracle.Loop _ ->
                  Alcotest.failf "seed %d: v%d loops but analytic said safe"
                    seed v
              | Oracle.Blackhole _ ->
                  Alcotest.failf
                    "seed %d: v%d blackholes but analytic said safe" seed v)
            report.Oracle.violations
        end)
      (Instance.switches_to_update inst)
  done

let test_walk_accessors () =
  let w =
    Safety.make_walk ~feed:(Horizon.Until 5) ~base:2
      [ (1, 2); (4, 3); (5, 6) ]
  in
  Alcotest.(check bool) "feed" true (Safety.walk_feed w = Horizon.Until 5);
  Alcotest.(check int) "base" 2 (Safety.walk_base w);
  Alcotest.(check int) "visits" 3 (List.length (Safety.walk_visits w));
  Alcotest.(check bool) "crosses non-origin" true (Safety.walk_crosses w 4);
  Alcotest.(check bool) "origin not crossed" false (Safety.walk_crosses w 1);
  Alcotest.(check bool) "absent not crossed" false (Safety.walk_crosses w 9);
  let w' = Safety.with_feed Horizon.Forever w in
  Alcotest.(check bool) "feed replaced" true
    (Safety.walk_feed w' = Horizon.Forever);
  Alcotest.(check int) "visits kept" 3 (List.length (Safety.walk_visits w'))

let test_analytic_walk_counting () =
  (* The v0 walk through the merge link forces the candidate to wait even
     though pairwise capacity would suffice: three streams, capacity 2. *)
  let g =
    Helpers.graph_of
      [
        (0, 1, 2, 2); (1, 2, 2, 2); (2, 3, 2, 3); (3, 4, 2, 2); (4, 5, 2, 3);
        (0, 4, 2, 2); (1, 3, 1, 1); (3, 2, 2, 1); (2, 5, 1, 2); (4, 1, 1, 3);
      ]
  in
  let inst =
    Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1; 2; 3; 4; 5 ]
      ~p_fin:[ 0; 4; 1; 3; 2; 5 ]
  in
  let drain = Drain.make inst in
  (* v0's stream crosses (4, 5) while old flow still does: with that walk
     registered, flipping v1 (whose redirected stream also reaches (4, 5))
     must be vetoed; without it, the pairwise view would allow it. *)
  let sched = Schedule.of_list [ (0, 0) ] in
  let tracer = Oracle.tracer inst in
  let walk =
    let cohort = Oracle.trace_from tracer sched 0 0 in
    Safety.make_walk ~feed:Horizon.Forever ~base:0 cohort.Oracle.visits
  in
  let dview = Drain.view drain sched in
  let without = Safety.analytic ~tracer inst dview sched ~time:0 1 in
  let with_walk =
    Safety.analytic ~streams:(Safety.view_of_walks [ walk ]) ~tracer inst
      dview sched ~time:0 1
  in
  Alcotest.(check bool) "pairwise view accepts" true (Safety.is_safe without);
  (match with_walk with
  | Safety.Would_congest _ -> ()
  | other ->
      Alcotest.failf "expected congestion veto, got %a" Safety.pp_verdict
        other)

let test_verdict_printer () =
  let render v = Format.asprintf "%a" Safety.pp_verdict v in
  Alcotest.(check string) "safe" "safe" (render Safety.Safe);
  Alcotest.(check string) "loop" "would loop through v3"
    (render (Safety.Would_loop 3));
  Alcotest.(check string) "congest" "would congest v1 -> v2 at t=5"
    (render (Safety.Would_congest (1, 2, 5)));
  Alcotest.(check string) "blackhole" "would blackhole at v7"
    (render (Safety.Would_blackhole 7));
  Alcotest.(check string) "drain" "traffic not yet drained"
    (render Safety.Not_drained)

let suite =
  ( "safety",
    [
      Alcotest.test_case "exact agrees with the oracle" `Quick
        test_exact_agrees_with_oracle;
      Alcotest.test_case "analytic never accepts misrouting" `Slow
        test_analytic_never_accepts_loops;
      Alcotest.test_case "walk accessors" `Quick test_walk_accessors;
      Alcotest.test_case "multi-stream counting vetoes merges" `Quick
        test_analytic_walk_counting;
      Alcotest.test_case "verdict printer" `Quick test_verdict_printer;
    ] )
