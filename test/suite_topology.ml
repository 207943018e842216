open Chronus_graph
open Chronus_topo

let rng () = Rng.make 7

let test_rng_determinism () =
  let a = Rng.make 3 and b = Rng.make 3 in
  let draws r = List.init 10 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (draws a) (draws b);
  let c = Rng.make 4 in
  Alcotest.(check bool) "different seed differs" true (draws a <> draws c)

let test_rng_ranges () =
  let r = rng () in
  for _ = 1 to 200 do
    let x = Rng.in_range r 3 7 in
    Alcotest.(check bool) "in range" true (x >= 3 && x <= 7)
  done;
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.in_range: empty range")
    (fun () -> ignore (Rng.in_range r 5 4));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick r ([] : int list)))

let test_shuffle_sample () =
  let r = rng () in
  let l = List.init 20 Fun.id in
  (* Sampling the whole list shuffles it. *)
  let s = Rng.sample r 20 l in
  Alcotest.(check (list int)) "permutation" l (List.sort compare s);
  let sample = Rng.sample r 5 l in
  Alcotest.(check int) "sample size" 5 (List.length sample);
  Alcotest.(check int) "no repeats" 5
    (List.length (List.sort_uniq compare sample));
  Alcotest.(check int) "oversample capped" 20
    (List.length (Rng.sample r 100 l))

let test_line_ring () =
  let line = Topology.line 5 in
  Alcotest.(check int) "line nodes" 5 (Graph.node_count line);
  Alcotest.(check int) "line edges" 8 (Helpers.edge_count line);
  Alcotest.(check bool) "bidirectional" true
    (Graph.mem_edge line 1 2 && Graph.mem_edge line 2 1);
  let ring = Topology.ring 5 in
  Alcotest.(check int) "ring edges" 10 (Helpers.edge_count ring);
  Alcotest.(check bool) "wrap" true (Graph.mem_edge ring 4 0)

let test_grid () =
  let grid = Topology.grid 3 2 in
  Alcotest.(check int) "grid nodes" 6 (Graph.node_count grid);
  (* 3x2: horizontal 2*2, vertical 3*1, doubled. *)
  Alcotest.(check int) "grid edges" 14 (Helpers.edge_count grid)

let test_complete () =
  let k = Topology.complete 4 in
  Alcotest.(check int) "complete edges" 12 (Helpers.edge_count k)

let test_fat_tree () =
  let ft = Topology.fat_tree 4 in
  (* k=4: 4 cores + 4 pods x (2 agg + 2 edge) = 20 switches. *)
  Alcotest.(check int) "fat-tree switches" 20 (Graph.node_count ft);
  Alcotest.check_raises "odd k rejected"
    (Invalid_argument "Topology.fat_tree: k must be even") (fun () ->
      ignore (Topology.fat_tree 3));
  (* Every edge switch reaches every core via some aggregation switch. *)
  Alcotest.(check bool) "edge reaches core" true
    (Helpers.reachable ft 19 0)

(* The Erdős–Rényi generator behind the shortest-path properties. *)
let test_random_graphs () =
  let er = Helpers.erdos_renyi ~rng:(rng ()) ~p:0.3 20 in
  Alcotest.(check int) "er nodes present" 20 (Graph.node_count er);
  Alcotest.(check bool) "no self-loops" true
    (List.for_all (fun (u, v, _) -> u <> v) (Graph.edges er));
  Alcotest.(check bool) "same seed, same graph" true
    (Graph.equal er (Helpers.erdos_renyi ~rng:(rng ()) ~p:0.3 20))

let test_randomizers () =
  let r = rng () in
  let g = Topology.line ~params:{ Topology.capacity = 1; delay = 1 } 6 in
  let g' = Topology.randomize_delays ~rng:r ~lo:2 ~hi:4 g in
  List.iter
    (fun (_, _, (e : Graph.edge)) ->
      Alcotest.(check bool) "delay in range" true
        (e.Graph.delay >= 2 && e.Graph.delay <= 4))
    (Graph.edges g')

let suite =
  ( "topology",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
      Alcotest.test_case "shuffle and sample" `Quick test_shuffle_sample;
      Alcotest.test_case "line and ring" `Quick test_line_ring;
      Alcotest.test_case "grid" `Quick test_grid;
      Alcotest.test_case "complete graph" `Quick test_complete;
      Alcotest.test_case "fat tree" `Quick test_fat_tree;
      Alcotest.test_case "random graphs" `Quick test_random_graphs;
      Alcotest.test_case "delay randomizer" `Quick test_randomizers;
    ] )
