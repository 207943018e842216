open Chronus_flow
open Chronus_core

let test_horizon_algebra () =
  let open Horizon in
  Alcotest.(check bool) "never before anything" true (before Never 0);
  Alcotest.(check bool) "forever never before" false (before Forever max_int);
  Alcotest.(check bool) "until strict" true (before (Until 3) 4);
  Alcotest.(check bool) "until inclusive edge" false (before (Until 3) 3);
  Alcotest.(check bool) "at_or_after" true (at_or_after (Until 3) 3);
  Alcotest.(check bool) "min order" true (min (Until 2) (Until 5) = Until 2);
  Alcotest.(check bool) "never smallest" true (min Never (Until 0) = Never);
  Alcotest.(check bool) "forever largest" true
    (max Forever (Until 100) = Forever);
  Alcotest.(check bool) "add shifts" true (add (Until 3) 2 = Until 5);
  Alcotest.(check bool) "add absorbs never" true (add Never 2 = Never);
  Alcotest.(check bool) "add absorbs forever" true (add Forever 2 = Forever);
  Alcotest.(check int) "compare equal" 0 (compare (Until 7) (Until 7))

let test_unscheduled_flows_forever () =
  let inst = Helpers.fig1 () in
  let drain = Drain.make inst in
  let view = Drain.view drain Schedule.empty in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "arrivals at v%d forever" v)
        true
        (Drain.last_arrival view v = Horizon.Forever))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "off-path never" true
    (Drain.last_arrival view 42 = Horizon.Never)

let test_divert_horizons () =
  (* v2 flips at t0: arrivals downstream stop after the in-flight tail. *)
  let inst = Helpers.fig1 () in
  let drain = Drain.make inst in
  let view = Drain.view drain (Schedule.of_list [ (2, 0) ]) in
  Alcotest.(check bool) "source keeps receiving" true
    (Drain.last_arrival view 1 = Horizon.Forever);
  Alcotest.(check bool) "v2 keeps receiving" true
    (Drain.last_arrival view 2 = Horizon.Forever);
  Alcotest.(check bool) "v3 last arrival t0" true
    (Drain.last_arrival view 3 = Horizon.Until 0);
  Alcotest.(check bool) "v4 last arrival t1" true
    (Drain.last_arrival view 4 = Horizon.Until 1);
  Alcotest.(check bool) "v5 last arrival t2" true
    (Drain.last_arrival view 5 = Horizon.Until 2);
  (* Exits: v2's own flip also stops its old outgoing link. *)
  Alcotest.(check bool) "v2 old exit stops" true
    (Drain.last_old_exit view 2 = Horizon.Until (-1));
  Alcotest.(check bool) "v5 exit t2" true
    (Drain.last_old_exit view 5 = Horizon.Until 2);
  Alcotest.(check bool) "dst never exits" true
    (Drain.last_old_exit view 6 = Horizon.Never)

(* Ground truth: compute last pure-old-path arrival by tracing every
   cohort through the oracle and keeping those whose visit prefix matches
   the initial path. *)
let brute_force_last_arrival inst sched v =
  let p_init = inst.Instance.p_init in
  let window_lo = -Instance.init_delay inst - 2 in
  let window_hi = Schedule.max_time sched + Instance.init_delay inst + 3 in
  let last = ref None in
  let tracer = Oracle.tracer inst in
  for tau = window_lo to window_hi do
    let cohort =
      Oracle.trace_from tracer sched (Instance.source inst) tau
    in
    let rec arrives_via_old path visits =
      match (path, visits) with
      | p :: _, [ (w, t) ] -> if p = w && w = v then Some t else None
      | p :: prest, (w, t) :: vrest ->
          if p <> w then None
          else if w = v then Some t
          else arrives_via_old prest vrest
      | [], _ | _, [] -> None
    in
    match arrives_via_old p_init cohort.Oracle.visits with
    | Some t -> last := Some (max t (Option.value ~default:min_int !last))
    | None -> ()
  done;
  !last

let test_drain_matches_oracle () =
  (* The closed-form horizons agree with brute force on random partial
     schedules, as long as the window is wide enough to see the last
     arrival. *)
  let rng = Chronus_topo.Rng.make 99 in
  for seed = 0 to 24 do
    let inst = Helpers.instance_of_seed seed in
    let drain = Drain.make inst in
    let switches = Instance.switches_to_update inst in
    let sched =
      List.fold_left
        (fun s v ->
          if Chronus_topo.Rng.bool rng then
            Schedule.add v (Chronus_topo.Rng.int rng 5) s
          else s)
        Schedule.empty switches
    in
    let view = Drain.view drain sched in
    List.iter
      (fun v ->
        match Drain.last_arrival view v with
        | Horizon.Until expected -> (
            match brute_force_last_arrival inst sched v with
            | Some actual ->
                Alcotest.(check int)
                  (Format.asprintf "seed %d, v%d under %a" seed v Schedule.pp
                     sched)
                  expected actual
            | None -> ())
        | Horizon.Forever | Horizon.Never -> ())
      inst.Instance.p_init
  done

let test_expiries () =
  let inst = Helpers.fig1 () in
  let drain = Drain.make inst in
  let view = Drain.view drain (Schedule.of_list [ (2, 0) ]) in
  let expiries = Drain.expiries view in
  Alcotest.(check bool) "sorted" true (List.sort compare expiries = expiries);
  Alcotest.(check bool) "contains v5 horizon" true (List.mem 2 expiries)

(* The pointwise queries against the views they replace. Instances are
   the paper's random reroutes (6-20 switches) and Fig. 10's long chains
   (30-80 switches), each with a random partial schedule drawn from the
   same seed, so QCheck shrinks over one integer. *)
module Rng = Chronus_topo.Rng
module Scenario = Chronus_topo.Scenario

let drain_case seed =
  let rng = Rng.make seed in
  let inst =
    if Rng.bool rng then
      Scenario.random_final ~rng (Scenario.spec (Rng.in_range rng 6 20))
    else
      Scenario.long_chain ~rng
        (Scenario.spec ~capacity_choices:[ 2 ] (Rng.in_range rng 30 80))
  in
  let sched =
    List.fold_left
      (fun acc v ->
        if Rng.int rng 3 = 0 then Schedule.add v (Rng.in_range rng 0 8) acc
        else acc)
      Schedule.empty
      (Instance.switches_to_update inst)
  in
  (inst, sched)

let arbitrary_drain_case =
  QCheck.make
    ~print:(fun seed ->
      let inst, sched = drain_case seed in
      Format.asprintf "seed %d:@ %a@ under %a" seed Instance.pp inst
        Schedule.pp sched)
    QCheck.Gen.(0 -- 10_000)

(* Every switch of either path, plus one that is on neither. *)
let nodes_of inst =
  List.sort_uniq compare
    ((-1 :: inst.Instance.p_init) @ inst.Instance.p_fin)

let after_flip_matches_view =
  QCheck.Test.make ~count:60 ~name:"last_arrival_after_flip = view of add"
    arbitrary_drain_case (fun seed ->
      let inst, sched = drain_case seed in
      let drain = Drain.make inst in
      let view = Drain.view drain sched in
      let nodes = nodes_of inst in
      let t_hi = Schedule.max_time sched + 3 in
      List.for_all
        (fun v ->
          Schedule.mem v sched
          || List.for_all
               (fun t ->
                 let tentative = Drain.view drain (Schedule.add v t sched) in
                 List.for_all
                   (fun y ->
                     Horizon.equal
                       (Drain.last_arrival_after_flip view ~flip:(v, t) y)
                       (Drain.last_arrival tentative y))
                   nodes)
               (List.init (t_hi + 1) Fun.id))
        nodes)

let is_upstream_matches_old_prev =
  QCheck.Test.make ~count:60 ~name:"is_upstream = old_prev chain"
    arbitrary_drain_case (fun seed ->
      let inst, sched = drain_case seed in
      let view = Drain.view (Drain.make inst) sched in
      let rec chain acc x =
        match Instance.old_prev inst x with
        | None -> acc
        | Some p -> chain (p :: acc) p
      in
      let nodes = nodes_of inst in
      List.for_all
        (fun v ->
          let prefix = chain [] v in
          List.for_all
            (fun z -> Drain.is_upstream view ~of_:v z = List.mem z prefix)
            nodes)
        nodes)

let suite =
  ( "drain",
    List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ after_flip_matches_view; is_upstream_matches_old_prev ]
    @ [
      Alcotest.test_case "horizon algebra" `Quick test_horizon_algebra;
      Alcotest.test_case "no schedule, flows forever" `Quick
        test_unscheduled_flows_forever;
      Alcotest.test_case "divert horizons after one flip" `Quick
        test_divert_horizons;
      Alcotest.test_case "horizons match the oracle" `Slow
        test_drain_matches_oracle;
      Alcotest.test_case "expiries" `Quick test_expiries;
    ] )
