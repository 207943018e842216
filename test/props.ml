(* Property-based tests (qcheck) over the core invariants. Instances are
   generated from integer seeds so that counterexamples shrink to a seed
   that can be replayed directly. *)

open Chronus_flow
open Chronus_core
open Chronus_baselines
open QCheck

let count = 60

(* The headline guarantee (Theorem 3): whatever the greedy schedules in
   Exact mode is congestion- and loop-free per the oracle. *)
let greedy_exact_consistent =
  Test.make ~count ~name:"greedy (exact) schedules are oracle-consistent"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      match Greedy.schedule ~mode:Greedy.Exact inst with
      | Greedy.Scheduled sched -> Oracle.is_consistent inst sched
      | Greedy.Infeasible _ -> true)

let greedy_analytic_consistent =
  Test.make ~count
    ~name:"greedy (analytic) schedules are oracle-consistent"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      match Greedy.schedule ~mode:Greedy.Analytic inst with
      | Greedy.Scheduled sched -> Oracle.is_consistent inst sched
      | Greedy.Infeasible _ -> true)

(* Greedy is *not* complete: committing every safe head as early as
   possible can paint the scheduler into a corner that a coordinated
   delay avoids (instance seed 8643 is a witness — branch-and-bound
   schedules it by holding one flip back four steps). Theorem 2's
   monotone-waiting argument grounds the infeasible verdict differently:
   the committed prefix is itself consistent, it genuinely leaves
   switches unscheduled, and waiting longer under *that prefix* can
   never help. That is what we can assert against ground truth. *)
let greedy_infeasible_prefix_grounded =
  Test.make ~count:30
    ~name:"greedy infeasibility leaves a consistent partial schedule"
    (Helpers.arbitrary_instance ~max_n:6 ())
    (fun seed ->
      let inst = Helpers.instance_of_seed ~max_n:6 seed in
      match Greedy.schedule ~mode:Greedy.Exact inst with
      | Greedy.Scheduled _ -> true
      | Greedy.Infeasible { partial; remaining } ->
          remaining <> []
          && (not (Schedule.covers inst partial))
          && (Oracle.evaluate inst partial).Oracle.ok)

(* Scenario.random_final instances at 8-12 switches, the sizes where a
   relaxed Analytic schedule starts to loop or blackhole. *)
let random_final_of_seed seed =
  let rng = Chronus_topo.Rng.make seed in
  let n = Chronus_topo.Rng.in_range rng 8 12 in
  Chronus_topo.Scenario.random_final ~rng (Chronus_topo.Scenario.spec n)

(* The default Exact mode misroutes nothing, on small mixed instances
   and on the paper's generator alike. *)
let fallback_covers_and_never_misroutes =
  Test.make ~count:200
    ~name:"fallback covers all updates and never loops/blackholes"
    (make
       ~print:(fun seed ->
         Format.asprintf "seed %d:@ %a@ and@ %a" seed Instance.pp
           (Helpers.instance_of_seed seed)
           Instance.pp (random_final_of_seed seed))
       Gen.(0 -- 10_000))
    (fun seed ->
      List.for_all
        (fun inst ->
          let { Fallback.schedule; _ } = Fallback.schedule inst in
          Schedule.covers inst schedule
          && List.for_all
               (function Oracle.Congestion _ -> true | _ -> false)
               (Oracle.evaluate inst schedule).Oracle.violations)
        [ Helpers.instance_of_seed seed; random_final_of_seed seed ])

let opt_optimal_below_greedy =
  Test.make ~count:30 ~name:"OPT is consistent and no worse than greedy"
    (Helpers.arbitrary_instance ~max_n:6 ())
    (fun seed ->
      let inst = Helpers.instance_of_seed ~max_n:6 seed in
      match (Opt.solve ~budget:30_000 ~timeout:2.0 inst).Opt.outcome with
      | Opt.Optimal sched -> (
          Oracle.is_consistent inst sched
          &&
          match Greedy.schedule inst with
          | Greedy.Scheduled g ->
              Schedule.makespan sched <= Schedule.makespan g
          | Greedy.Infeasible _ -> true)
      | Opt.Infeasible -> true (* exactness vs enumeration tested in suite_opt *)
      | Opt.Feasible _ | Opt.Unknown -> true)

let or_rounds_loop_free =
  Test.make ~count ~name:"OR rounds are loop-free under any interleaving"
    (Helpers.arbitrary_instance ~max_n:7 ())
    (fun seed ->
      let inst = Helpers.instance_of_seed ~max_n:7 seed in
      match Order_replacement.greedy_rounds inst with
      | None -> true
      | Some rounds ->
          let _, ok =
            List.fold_left
              (fun (done_, ok) round ->
                ( done_ @ round,
                  ok
                  && List.length round <= 10
                     (* keep the 2^|round| check bounded *)
                  && Model_interleavings.loop_free inst ~done_
                       ~round ))
              ([], true) rounds
          in
          ok)

let oracle_steady_states_consistent =
  Test.make ~count ~name:"empty and complete-at-drain schedules behave"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      (* Never updating anything is always consistent (the old path is a
         valid steady state). *)
      (Oracle.evaluate inst Schedule.empty).Oracle.ok)

let dependency_heads_subset =
  Test.make ~count ~name:"dependency heads are remaining switches"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let remaining = Instance.switches_to_update inst in
      let dep =
        Dependency.at inst (Drain.make inst) Schedule.empty ~remaining
          ~time:0
      in
      List.for_all (fun h -> List.mem h remaining) (Dependency.heads dep))

let cdf_monotone =
  Test.make ~count:100 ~name:"CDF evaluation is monotone and bounded"
    (list_of_size Gen.(1 -- 30) (int_bound 100))
    (fun samples ->
      let open Chronus_stats in
      let cdf = Cdf.of_int_samples samples in
      let xs = List.init 20 (fun i -> float_of_int (i * 10)) in
      let values = List.map (Cdf.eval cdf) xs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone values
      && List.for_all (fun v -> v >= 0. && v <= 1.) values)

let heap_sorts =
  Test.make ~count:100 ~name:"event queue pops in time order"
    (list (int_bound 1000))
    (fun times ->
      let open Chronus_sim in
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ignore) times;
      let rec pop acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) -> pop (t :: acc)
      in
      pop [] = List.sort compare times)

let dijkstra_triangle_inequality =
  Test.make ~count:50 ~name:"dijkstra distances obey relaxation"
    (int_bound 10_000)
    (fun seed ->
      let open Chronus_graph in
      let rng = Chronus_topo.Rng.make seed in
      let g =
        Helpers.erdos_renyi ~rng ~p:0.3 8
      in
      let g = Chronus_topo.Topology.randomize_delays ~rng ~lo:1 ~hi:5 g in
      let dist = Shortest.dijkstra g 0 in
      List.for_all
        (fun (u, v, (e : Graph.edge)) ->
          match (Hashtbl.find_opt dist u, Hashtbl.find_opt dist v) with
          | Some (du, _), Some (dv, _) -> dv <= du + e.Graph.delay
          | Some _, None -> false (* v reachable through u *)
          | None, _ -> true)
        (Graph.edges g))

(* The closed-form accounting of pure and stable cohorts must agree with
   brute-force materialisation of every cohort. *)
let oracle_closed_form_equiv =
  Test.make ~count ~name:"oracle fast path agrees with exhaustive replay"
    (pair (Helpers.arbitrary_instance ()) (int_bound 100_000))
    (fun (seed, salt) ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Chronus_topo.Rng.make salt in
      let sched =
        List.fold_left
          (fun s v ->
            if Chronus_topo.Rng.bool rng then
              Schedule.add v (Chronus_topo.Rng.int rng 6) s
            else s)
          Schedule.empty
          (Instance.switches_to_update inst)
      in
      let fast = (Oracle.evaluate inst sched).Oracle.ok in
      (* link_loads runs the exhaustive replay; reconstruct its verdict on
         congestion and combine with trace outcomes over the window. *)
      let exhaustive_congested =
        List.exists
          (fun ((u, v, _), load) ->
            load > Chronus_graph.Graph.capacity inst.Instance.graph u v)
          (Oracle.link_loads inst sched)
      in
      let window_lo = -Instance.init_delay inst - 1 in
      let window_hi =
        Schedule.max_time sched + Instance.init_delay inst
        + Instance.fin_delay inst + 2
      in
      let misrouted = ref false in
      let tracer = Oracle.tracer inst in
      let src = Instance.source inst in
      for tau = window_lo to window_hi do
        match (Oracle.trace_from tracer sched src tau).Oracle.outcome with
        | Oracle.Delivered -> ()
        | Oracle.Looped _ | Oracle.Dropped _ -> misrouted := true
      done;
      fast = ((not exhaustive_congested) && not !misrouted))

let dijkstra_optimal =
  Test.make ~count:40 ~name:"dijkstra matches brute-force shortest delay"
    (int_bound 10_000)
    (fun seed ->
      let open Chronus_graph in
      let rng = Chronus_topo.Rng.make (seed + 77) in
      let g =
        Helpers.erdos_renyi ~rng ~p:0.4 6
      in
      let g = Chronus_topo.Topology.randomize_delays ~rng ~lo:1 ~hi:4 g in
      (* Enumerate every simple path 0 ~> 5 and take the cheapest. *)
      let best = ref None in
      let rec dfs v cost visited =
        if v = 5 then
          best :=
            Some
              (match !best with None -> cost | Some b -> min b cost)
        else
          List.iter
            (fun (w, (e : Graph.edge)) ->
              if not (List.mem w visited) then
                dfs w (cost + e.Graph.delay) (w :: visited))
            (Graph.succ g v)
      in
      if Graph.mem_node g 0 then dfs 0 0 [ 0 ];
      Helpers.distance g 0 5 = !best)

let or_jitter_in_round_window =
  Test.make ~count:60 ~name:"round schedules stay inside their windows"
    (pair (Helpers.arbitrary_instance ()) (int_bound 1_000))
    (fun (seed, salt) ->
      let inst = Helpers.instance_of_seed seed in
      match Order_replacement.greedy_rounds inst with
      | None -> true
      | Some rounds ->
          let rng = Chronus_topo.Rng.make salt in
          let gap = 6 in
          let sched =
            Order_replacement.schedule_of_rounds ~gap
              ~jitter:(fun ~round:_ _ -> Chronus_topo.Rng.int rng 100)
              rounds
          in
          List.for_all
            (fun (v, t) ->
              let round =
                let rec find i = function
                  | [] -> -1
                  | r :: rest -> if List.mem v r then i else find (i + 1) rest
                in
                find 0 rounds
              in
              t >= round * gap && t < (round + 1) * gap)
            (Schedule.to_list sched))

let tp_rules_exceed_chronus =
  Test.make ~count ~name:"TP transition footprint exceeds Chronus's"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      Instance.is_trivial inst
      || (Two_phase.rule_count inst).Two_phase.transition_peak
         > Two_phase.chronus_rule_count inst)

let suite =
  Helpers.qsuite "properties"
    [
      greedy_exact_consistent;
      greedy_analytic_consistent;
      greedy_infeasible_prefix_grounded;
      fallback_covers_and_never_misroutes;
      opt_optimal_below_greedy;
      or_rounds_loop_free;
      oracle_steady_states_consistent;
      dependency_heads_subset;
      cdf_monotone;
      heap_sorts;
      dijkstra_triangle_inequality;
      oracle_closed_form_equiv;
      dijkstra_optimal;
      or_jitter_in_round_window;
      tp_rules_exceed_chronus;
    ]
