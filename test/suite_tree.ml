open Chronus_flow
open Chronus_core

let test_fig1_crossings () =
  let inst = Helpers.fig1 () in
  let crossings = Tree.crossings inst in
  Alcotest.(check int) "five crossings" 5 (List.length crossings);
  let find v = List.find (fun c -> c.Tree.switch = v) crossings in
  (* v2 jumps straight to the destination: no merge, admissible. *)
  let c2 = find 2 in
  Alcotest.(check bool) "v2 no merge" true (c2.Tree.merge = None);
  Alcotest.(check bool) "v2 admissible" true c2.Tree.admissible;
  (* v4 and v5 jump backwards along the old path. *)
  Alcotest.(check bool) "v4 backward" true (find 4).Tree.backward;
  Alcotest.(check bool) "v5 backward" true (find 5).Tree.backward;
  (* v1 merges at v4 with a shorter new segment over unit capacity: it
     must wait for drain. *)
  let c1 = find 1 in
  Alcotest.(check (option int)) "v1 merge" (Some 4) c1.Tree.merge;
  Alcotest.(check bool) "v1 must wait" false c1.Tree.admissible;
  Alcotest.(check int) "v1 phi_new" 1 c1.Tree.phi_new;
  Alcotest.(check (option int)) "v1 phi_old" (Some 3) c1.Tree.phi_old

let test_check_positive () =
  Alcotest.(check bool) "fig1 feasible" true (Tree.check (Helpers.fig1 ()))

let test_check_negative () =
  Alcotest.(check bool) "shortcut onto slow tail infeasible" false
    (Tree.check (Helpers.infeasible ()))

let test_check_agrees_with_exhaustive_uniform () =
  (* On uniform-delay instances the polynomial decision must agree with
     the exact solver (Theorem 2's setting). The solver's branch and bound
     prunes well enough to be exact at these sizes; samples on which it
     runs out of budget are skipped. *)
  for seed = 0 to 39 do
    let inst = Helpers.instance_of_seed ~uniform_delay:true ~max_n:6 seed in
    let polynomial = Tree.check inst in
    match
      (Chronus_baselines.Opt.solve ~budget:150_000 ~timeout:5.0 inst)
        .Chronus_baselines.Opt.outcome
    with
    | Chronus_baselines.Opt.Optimal _ ->
        Alcotest.(check bool)
          (Format.asprintf "seed %d feasible: %a" seed Instance.pp inst)
          true polynomial
    | Chronus_baselines.Opt.Infeasible ->
        Alcotest.(check bool)
          (Format.asprintf "seed %d infeasible: %a" seed Instance.pp inst)
          false polynomial
    | Chronus_baselines.Opt.Feasible _ | Chronus_baselines.Opt.Unknown -> ()
  done

let test_check_sound_general () =
  (* With arbitrary delays, a positive answer must still be witnessed by a
     schedule that the oracle accepts (Tree.check is constructive via the
     analytic greedy; re-derive the witness and validate it). *)
  for seed = 100 to 139 do
    let inst = Helpers.instance_of_seed ~max_n:6 seed in
    if Tree.check inst && not (Instance.is_trivial inst) then
      match Greedy.schedule ~mode:Greedy.Analytic inst with
      | Greedy.Scheduled sched ->
          Alcotest.(check bool)
            (Format.asprintf "seed %d witness consistent" seed)
            true
            (Oracle.is_consistent inst sched)
      | Greedy.Infeasible _ ->
          Alcotest.failf "seed %d: check true but greedy failed" seed
  done

let suite =
  ( "tree",
    [
      Alcotest.test_case "crossing analysis of the worked example" `Quick
        test_fig1_crossings;
      Alcotest.test_case "feasible instance accepted" `Quick
        test_check_positive;
      Alcotest.test_case "infeasible instance rejected" `Quick
        test_check_negative;
      Alcotest.test_case "agrees with exhaustive search (uniform delays)"
        `Slow test_check_agrees_with_exhaustive_uniform;
      Alcotest.test_case "sound on general delays" `Slow
        test_check_sound_general;
    ] )
