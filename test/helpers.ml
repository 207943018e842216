(* Shared fixtures and generators for the test suite. *)

open Chronus_graph
open Chronus_flow

let graph_of edges =
  let g = Graph.create () in
  List.iter
    (fun (u, v, capacity, delay) -> Graph.add_edge ~capacity ~delay g u v)
    edges;
  g

let unit_graph_of edges =
  graph_of (List.map (fun (u, v) -> (u, v, 1, 1)) edges)

let edge_count g = List.length (Graph.edges g)
let out_degree g v = List.length (Graph.succ g v)

(* Is there a directed path [u ~> v]? *)
let reachable g u v = List.mem v (Traversal.bfs_order g u)

(* Minimum total delay from [src] to [dst], [None] when unreachable. *)
let distance g src dst =
  Option.map fst (Hashtbl.find_opt (Shortest.dijkstra g src) dst)

(* A directed Erdős–Rényi graph on nodes [0 .. n-1]: each ordered pair
   gets a unit edge independently with probability [p]; isolated nodes
   stay. *)
let erdos_renyi ~rng ~p n =
  let g = Graph.create ~size:n () in
  for v = 0 to n - 1 do
    Graph.add_node g v
  done;
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Chronus_topo.Rng.float rng 1.0 < p then Graph.add_edge g u v
    done
  done;
  g

(* The worked example of Figs. 1-3 and 5. *)
let fig1 () = Chronus_topo.Scenario.fig1_example ()

(* Paper's timed schedule for it: v2@t0, v3@t1, {v1,v4}@t2, v5@t3. *)
let fig1_paper_schedule =
  Schedule.of_list [ (2, 0); (3, 1); (1, 2); (4, 2); (5, 3) ]

let all_at_zero inst =
  Schedule.of_list
    (List.map (fun v -> (v, 0)) (Instance.switches_to_update inst))

(* A small two-path instance where no consistent schedule exists: the
   final path shortcuts onto the tail link (2, 3), so redirected traffic
   always catches the old stream on it and the link cannot carry both. *)
let infeasible () =
  let g =
    graph_of [ (0, 1, 1, 1); (1, 2, 1, 1); (2, 3, 1, 3); (0, 2, 1, 1) ]
  in
  Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1; 2; 3 ]
    ~p_fin:[ 0; 2; 3 ]

(* Random small instances for property tests, derived from a seed so that
   QCheck can shrink over integers. *)
let instance_of_seed ?(uniform_delay = false) ?(min_n = 4) ?(max_n = 8) seed =
  let rng = Chronus_topo.Rng.make seed in
  let n = Chronus_topo.Rng.in_range rng min_n max_n in
  let delay_hi = if uniform_delay then 1 else 3 in
  let spec =
    Chronus_topo.Scenario.spec ~capacity_choices:[ 1; 2 ] ~delay_lo:1
      ~delay_hi n
  in
  Chronus_topo.Scenario.mixed ~rng spec

let arbitrary_instance ?uniform_delay ?min_n ?max_n () =
  QCheck.make
    ~print:(fun seed ->
      Format.asprintf "seed %d:@ %a" seed Instance.pp
        (instance_of_seed ?uniform_delay ?min_n ?max_n seed))
    QCheck.Gen.(0 -- 10_000)

let qsuite name props =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

let check_consistent what inst sched =
  let report = Oracle.evaluate inst sched in
  Alcotest.(check bool)
    (what ^ ": "
    ^ Format.asprintf "%a" Oracle.pp_report report)
    true report.Oracle.ok
