open Chronus_graph

let check_nodes = Alcotest.(check (list int))

let test_empty () =
  let g = Graph.create () in
  Alcotest.(check int) "no nodes" 0 (Graph.node_count g);
  Alcotest.(check int) "no edges" 0 (Helpers.edge_count g);
  check_nodes "nodes" [] (Graph.nodes g)

let test_add_nodes () =
  let g = Graph.create () in
  Graph.add_node g 3;
  Graph.add_node g 1;
  Graph.add_node g 3;
  check_nodes "sorted, deduplicated" [ 1; 3 ] (Graph.nodes g);
  Alcotest.(check bool) "mem 3" true (Graph.mem_node g 3);
  Alcotest.(check bool) "not mem 2" false (Graph.mem_node g 2)

let test_add_edge () =
  let g = Graph.create () in
  Graph.add_edge ~capacity:5 ~delay:2 g 1 2;
  Alcotest.(check bool) "edge present" true (Graph.mem_edge g 1 2);
  Alcotest.(check bool) "reverse absent" false (Graph.mem_edge g 2 1);
  Alcotest.(check int) "capacity" 5 (Graph.capacity g 1 2);
  Alcotest.(check int) "delay" 2 (Graph.delay g 1 2);
  Alcotest.(check int) "endpoints added" 2 (Graph.node_count g)

let test_edge_replacement () =
  let g = Graph.create () in
  Graph.add_edge ~capacity:1 ~delay:1 g 1 2;
  Graph.add_edge ~capacity:9 ~delay:4 g 1 2;
  Alcotest.(check int) "one edge" 1 (Helpers.edge_count g);
  Alcotest.(check int) "latest capacity" 9 (Graph.capacity g 1 2);
  Alcotest.(check int) "latest delay" 4 (Graph.delay g 1 2)

let test_remove_edge () =
  let g = Helpers.unit_graph_of [ (1, 2); (2, 3) ] in
  Graph.remove_edge g 1 2;
  Alcotest.(check bool) "removed" false (Graph.mem_edge g 1 2);
  Alcotest.(check bool) "other kept" true (Graph.mem_edge g 2 3);
  Graph.remove_edge g 1 2 (* no-op *)

let test_invalid_edges () =
  let g = Graph.create () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1);
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Graph.add_edge: non-positive capacity") (fun () ->
      Graph.add_edge ~capacity:0 g 1 2);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Graph.add_edge: negative delay") (fun () ->
      Graph.add_edge ~delay:(-1) g 1 2)

let test_succ_pred () =
  let g = Helpers.unit_graph_of [ (1, 2); (1, 3); (4, 1) ] in
  Alcotest.(check (list int))
    "succ sorted" [ 2; 3 ]
    (List.map fst (Graph.succ g 1));
  Alcotest.(check (list int)) "pred" [ 4 ] (List.map fst (Graph.pred g 1));
  Alcotest.(check int) "out degree" 2 (Helpers.out_degree g 1);
  Alcotest.(check int) "in degree" 1 (Graph.in_degree g 1);
  Alcotest.(check int) "sink degree" 0 (Helpers.out_degree g 2)

let test_copy_independent () =
  let g = Helpers.unit_graph_of [ (1, 2) ] in
  let g' = Graph.copy g in
  Graph.add_edge g' 2 3;
  Alcotest.(check bool) "copy has new edge" true (Graph.mem_edge g' 2 3);
  Alcotest.(check bool) "original untouched" false (Graph.mem_edge g 2 3);
  Alcotest.(check bool) "copies equal before divergence" false
    (Graph.equal g g')

let test_of_labelled_edges_roundtrip () =
  let edges =
    [
      (1, 2, { Graph.capacity = 3; delay = 2 });
      (2, 3, { Graph.capacity = 1; delay = 5 });
    ]
  in
  let g = Graph.create () in
  List.iter
    (fun (u, v, (e : Graph.edge)) ->
      Graph.add_edge ~capacity:e.capacity ~delay:e.delay g u v)
    edges;
  Alcotest.(check bool)
    "roundtrip" true
    (Graph.edges g = List.sort compare edges)

let test_missing_edge_raises () =
  let g = Helpers.unit_graph_of [ (1, 2) ] in
  Alcotest.check_raises "capacity of absent edge" Not_found (fun () ->
      ignore (Graph.capacity g 2 1));
  Alcotest.(check (option (pair int int))) "find_edge absent" None
    (Option.map
       (fun (e : Graph.edge) -> (e.Graph.capacity, e.Graph.delay))
       (Graph.find_edge g 2 1))

let suite =
  ( "graph",
    [
      Alcotest.test_case "empty graph" `Quick test_empty;
      Alcotest.test_case "add nodes" `Quick test_add_nodes;
      Alcotest.test_case "add edge" `Quick test_add_edge;
      Alcotest.test_case "edge replacement" `Quick test_edge_replacement;
      Alcotest.test_case "remove edge" `Quick test_remove_edge;
      Alcotest.test_case "invalid edges rejected" `Quick test_invalid_edges;
      Alcotest.test_case "successors and predecessors" `Quick test_succ_pred;
      Alcotest.test_case "copy independence" `Quick test_copy_independent;
      Alcotest.test_case "labelled edges roundtrip" `Quick
        test_of_labelled_edges_roundtrip;
      Alcotest.test_case "missing edge raises" `Quick test_missing_edge_raises;
    ] )
