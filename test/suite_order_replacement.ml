open Chronus_flow
open Chronus_baselines

let test_round_safety_basics () =
  let inst = Helpers.fig1 () in
  (* Flipping v2 alone can never loop. *)
  Alcotest.(check bool) "v2 alone safe" true
    (Order_replacement.round_safe inst ~done_:[] ~round:[ 2 ]);
  (* v3 and v4 together: some interleaving yields the v3 <-> v4 loop. *)
  Alcotest.(check bool) "v3+v4 unsafe" false
    (Order_replacement.round_safe inst ~done_:[] ~round:[ 3; 4 ]);
  (* Even v4 alone is unsafe while v3 still has its old rule. *)
  Alcotest.(check bool) "v4 alone unsafe" false
    (Order_replacement.round_safe inst ~done_:[] ~round:[ 4 ]);
  (* Once v3 is done, v4 is fine. *)
  Alcotest.(check bool) "v4 after v3" true
    (Order_replacement.round_safe inst ~done_:[ 3 ] ~round:[ 4 ])

let test_safety_matches_interleavings () =
  let inst = Helpers.fig1 () in
  let switches = Order_replacement.replaceable_switches inst in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun l -> x :: l) s
  in
  List.iter
    (fun round ->
      if List.length round <= 3 then
        Alcotest.(check bool)
          (Printf.sprintf "round {%s}"
             (String.concat "," (List.map string_of_int round)))
          (Model_interleavings.loop_free inst ~done_:[] ~round)
          (Order_replacement.round_safe inst ~done_:[] ~round))
    (subsets switches)

let test_greedy_rounds_valid () =
  let inst = Helpers.fig1 () in
  match Order_replacement.greedy_rounds inst with
  | None -> Alcotest.fail "fig1 has an order"
  | Some rounds ->
      let all = List.concat rounds in
      Alcotest.(check (list int))
        "covers replaceable switches"
        (Order_replacement.replaceable_switches inst)
        (List.sort compare all);
      (* Each round must be safe given the prefix. *)
      let _ =
        List.fold_left
          (fun done_ round ->
            Alcotest.(check bool) "round safe" true
              (Order_replacement.round_safe inst ~done_ ~round);
            done_ @ round)
          [] rounds
      in
      ()

let test_minimum_rounds_optimal () =
  let inst = Helpers.fig1 () in
  let r = Order_replacement.minimum_rounds inst in
  Alcotest.(check bool) "optimal" true r.Order_replacement.optimal;
  match r.Order_replacement.rounds with
  | None -> Alcotest.fail "exists"
  | Some rounds ->
      Alcotest.(check int) "two rounds suffice" 2 (List.length rounds);
      (* And one round cannot (flipping everything at once loops). *)
      Alcotest.(check bool) "one round unsafe" false
        (Order_replacement.round_safe inst ~done_:[]
           ~round:(Order_replacement.replaceable_switches inst))

let test_minimum_le_greedy () =
  for seed = 0 to 19 do
    let inst = Helpers.instance_of_seed seed in
    match
      ( Order_replacement.greedy_rounds inst,
        (Order_replacement.minimum_rounds inst).Order_replacement.rounds )
    with
    | Some g, Some m ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: exact <= greedy" seed)
          true
          (List.length m <= List.length g)
    | None, None -> ()
    | Some _, None ->
        Alcotest.failf "seed %d: exact failed where greedy succeeded" seed
    | None, Some _ -> ()
  done

let test_schedule_of_rounds () =
  let rounds = [ [ 2 ]; [ 1; 3 ] ] in
  let sched =
    Order_replacement.schedule_of_rounds ~gap:5
      ~jitter:(fun ~round v -> (round + v) mod 5)
      rounds
  in
  Alcotest.(check (option int)) "round 0" (Some 2) (Schedule.find 2 sched);
  Alcotest.(check (option int)) "round 1 switch 1" (Some 7)
    (Schedule.find 1 sched);
  Alcotest.(check (option int)) "round 1 switch 3" (Some 9)
    (Schedule.find 3 sched)

let test_or_ignores_capacity () =
  (* OR only guarantees loop freedom: on the worked example with adverse
     jitter the oracle finds congestion. *)
  let inst = Helpers.fig1 () in
  let r = Order_replacement.minimum_rounds inst in
  match r.Order_replacement.rounds with
  | None -> Alcotest.fail "rounds exist"
  | Some rounds ->
      let congested = ref false in
      for seed = 0 to 19 do
        let rng = Chronus_topo.Rng.make seed in
        let sched =
          Order_replacement.schedule_of_rounds ~gap:6
            ~jitter:(fun ~round:_ _ -> Chronus_topo.Rng.int rng 6)
            rounds
        in
        let report = Oracle.evaluate inst sched in
        if
          List.exists
            (function Oracle.Congestion _ -> true | _ -> false)
            report.Oracle.violations
        then congested := true
      done;
      Alcotest.(check bool) "some jitter congests" true !congested

let suite =
  ( "order_replacement",
    [
      Alcotest.test_case "round safety basics" `Quick
        test_round_safety_basics;
      Alcotest.test_case "safety characterisation matches interleavings"
        `Quick test_safety_matches_interleavings;
      Alcotest.test_case "greedy rounds are valid" `Quick
        test_greedy_rounds_valid;
      Alcotest.test_case "minimum rounds on the worked example" `Quick
        test_minimum_rounds_optimal;
      Alcotest.test_case "exact never beats greedy upward" `Slow
        test_minimum_le_greedy;
      Alcotest.test_case "rounds to timed schedule" `Quick
        test_schedule_of_rounds;
      Alcotest.test_case "OR ignores capacities" `Quick
        test_or_ignores_capacity;
    ] )
