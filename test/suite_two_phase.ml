open Chronus_baselines

let test_rule_counts () =
  let inst = Helpers.fig1 () in
  let rc = Two_phase.rule_count inst in
  (* Five hops on each path plus the ingress stamping rule. *)
  Alcotest.(check int) "steady" 5 rc.Two_phase.steady;
  Alcotest.(check int) "transition peak" 11 rc.Two_phase.transition_peak;
  Alcotest.(check int) "chronus in-place" 5
    (Two_phase.chronus_rule_count inst);
  Alcotest.(check bool) "chronus saves" true
    (Two_phase.chronus_rule_count inst < rc.Two_phase.transition_peak)

let suite =
  ( "two_phase",
    [
      Alcotest.test_case "rule counts" `Quick test_rule_counts;
    ] )
