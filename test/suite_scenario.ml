open Chronus_graph
open Chronus_flow
open Chronus_topo

let well_formed name inst =
  let g = inst.Instance.graph in
  Alcotest.(check bool) (name ^ ": init valid") true
    (Path.is_valid g inst.Instance.p_init);
  Alcotest.(check bool) (name ^ ": fin valid") true
    (Path.is_valid g inst.Instance.p_fin);
  Alcotest.(check int)
    (name ^ ": same source")
    (Path.source inst.Instance.p_init)
    (Path.source inst.Instance.p_fin);
  Alcotest.(check int)
    (name ^ ": same destination")
    (Path.destination inst.Instance.p_init)
    (Path.destination inst.Instance.p_fin)

let test_generators_well_formed () =
  let rng = Rng.make 21 in
  for n = 4 to 12 do
    let spec = Scenario.spec n in
    well_formed "random_final" (Scenario.random_final ~rng spec);
    well_formed "segment_reversal" (Scenario.segment_reversal ~rng spec);
    well_formed "shortcut" (Scenario.shortcut ~rng spec);
    well_formed "random_pair" (Scenario.random_pair ~rng spec);
    well_formed "mixed" (Scenario.mixed ~rng spec);
    well_formed "long_chain" (Scenario.long_chain ~rng spec)
  done

let test_random_final_shape () =
  let rng = Rng.make 3 in
  let spec = Scenario.spec 10 in
  let inst = Scenario.random_final ~rng spec in
  Alcotest.(check (list int)) "initial path is the chain"
    (List.init 10 Fun.id) inst.Instance.p_init;
  Alcotest.(check bool) "final endpoints" true
    (Path.source inst.Instance.p_fin = 0
    && Path.destination inst.Instance.p_fin = 9)

let test_long_chain_updates () =
  let rng = Rng.make 3 in
  let spec = Scenario.spec 40 in
  let inst = Scenario.long_chain ~rng spec in
  (* A reversed segment of eight switches: nine rules change. *)
  Alcotest.(check bool) "local update region" true
    (let c = Instance.update_count inst in
     c >= 8 && c <= 10);
  Alcotest.(check int) "path spans the network" 40
    (List.length inst.Instance.p_init)

let test_delays_capacities_within_spec () =
  let rng = Rng.make 9 in
  let spec =
    Scenario.spec ~capacity_choices:[ 2; 3 ] ~delay_lo:2 ~delay_hi:5 8
  in
  let inst = Scenario.mixed ~rng spec in
  List.iter
    (fun (_, _, (e : Graph.edge)) ->
      Alcotest.(check bool) "capacity choice" true
        (List.mem e.Graph.capacity [ 2; 3 ]);
      Alcotest.(check bool) "delay range" true
        (e.Graph.delay >= 2 && e.Graph.delay <= 5))
    (Graph.edges inst.Instance.graph)

let test_spec_validation () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Scenario.spec: need at least 3 switches") (fun () ->
      ignore (Scenario.spec 2));
  Alcotest.check_raises "capacity below demand"
    (Invalid_argument "Scenario.spec: capacity below demand") (fun () ->
      ignore (Scenario.spec ~demand:5 ~capacity_choices:[ 1 ] 5))

let test_fig1_fixture () =
  let inst = Scenario.fig1_example () in
  Alcotest.(check int) "updates" 5 (Instance.update_count inst);
  Alcotest.(check int) "edges" 10
    (Helpers.edge_count inst.Instance.graph)

let suite =
  ( "scenario",
    [
      Alcotest.test_case "generators produce well-formed instances" `Quick
        test_generators_well_formed;
      Alcotest.test_case "random_final shape" `Quick test_random_final_shape;
      Alcotest.test_case "long_chain has many updates" `Quick
        test_long_chain_updates;
      Alcotest.test_case "spec attributes respected" `Quick
        test_delays_capacities_within_spec;
      Alcotest.test_case "spec validation" `Quick test_spec_validation;
      Alcotest.test_case "fig1 fixture" `Quick test_fig1_fixture;
    ] )
