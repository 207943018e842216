open Chronus_graph

let diamond () = Helpers.unit_graph_of [ (1, 2); (1, 3); (2, 4); (3, 4) ]

let test_bfs () =
  let g = diamond () in
  Alcotest.(check (list int)) "bfs order" [ 1; 2; 3; 4 ]
    (Traversal.bfs_order g 1);
  Alcotest.(check (list int)) "bfs from sink" [ 4 ] (Traversal.bfs_order g 4);
  Alcotest.(check (list int)) "bfs unknown root" []
    (Traversal.bfs_order g 99)

let test_reachability () =
  let g = Helpers.unit_graph_of [ (1, 2); (2, 3); (4, 5) ] in
  Alcotest.(check bool) "reachable" true (Helpers.reachable g 1 3);
  Alcotest.(check bool) "not reachable" false (Helpers.reachable g 1 5);
  Alcotest.(check bool) "self" true (Helpers.reachable g 1 1);
  Alcotest.(check bool) "not backwards" false (Helpers.reachable g 3 1)

let weighted () =
  Helpers.graph_of
    [
      (1, 2, 1, 1); (2, 4, 1, 10); (1, 3, 1, 2); (3, 4, 1, 2); (4, 5, 1, 1);
    ]

let test_dijkstra () =
  let g = weighted () in
  Alcotest.(check (option int)) "distance" (Some 5) (Helpers.distance g 1 5);
  Alcotest.(check (option (list int)))
    "path" (Some [ 1; 3; 4; 5 ]) (Shortest.shortest_path g 1 5);
  Alcotest.(check (option int)) "unreachable" None (Helpers.distance g 5 1);
  Alcotest.(check (option int)) "self distance" (Some 0)
    (Helpers.distance g 1 1)

let test_hop_path () =
  let g = weighted () in
  (* Fewest hops prefers the big-delay route 1-2-4. *)
  Alcotest.(check (option (list int)))
    "hop path" (Some [ 1; 2; 4 ]) (Shortest.hop_path g 1 4);
  Alcotest.(check (option (list int))) "unreachable" None
    (Shortest.hop_path g 5 1)

let test_cycles () =
  let dag = diamond () in
  Alcotest.(check bool) "diamond acyclic" false (Cycle.has_cycle dag);
  let cyclic = Helpers.unit_graph_of [ (1, 2); (2, 3); (3, 1); (3, 4) ] in
  Alcotest.(check bool) "cycle found" true (Cycle.has_cycle cyclic);
  (* A cycle off the first root's DFS tree, and a self-contained 2-cycle. *)
  Alcotest.(check bool) "late cycle found" true
    (Cycle.has_cycle
       (Helpers.unit_graph_of [ (1, 2); (3, 4); (4, 5); (5, 3) ]));
  Alcotest.(check bool) "2-cycle found" true
    (Cycle.has_cycle (Helpers.unit_graph_of [ (1, 2); (2, 1) ]))

let test_topological_sort () =
  let dag = diamond () in
  (match Cycle.topological_sort dag with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some order ->
      Alcotest.(check int) "covers all" 4 (List.length order);
      let position v =
        let rec idx i = function
          | [] -> -1
          | x :: rest -> if x = v then i else idx (i + 1) rest
        in
        idx 0 order
      in
      List.iter
        (fun (u, v, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%d before %d" u v)
            true
            (position u < position v))
        (Graph.edges dag));
  let cyclic = Helpers.unit_graph_of [ (1, 2); (2, 1) ] in
  Alcotest.(check bool)
    "cyclic has no order" true
    (Cycle.topological_sort cyclic = None)

let test_dot () =
  let g = Helpers.unit_graph_of [ (1, 2); (2, 3) ] in
  let dot = Dot.to_dot ~initial_path:[ 1; 2 ] ~final_path:[ 2; 3 ] g in
  Alcotest.(check bool) "has digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let has sub =
    let n = String.length dot and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub dot i m = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "initial edge solid red" true
    (has "v1 -> v2 [color=red, style=solid");
  Alcotest.(check bool) "final edge dashed red" true
    (has "v2 -> v3 [color=red, style=dashed")

let suite =
  ( "traversal",
    [
      Alcotest.test_case "bfs" `Quick test_bfs;
      Alcotest.test_case "reachability" `Quick test_reachability;
      Alcotest.test_case "dijkstra" `Quick test_dijkstra;
      Alcotest.test_case "hop path" `Quick test_hop_path;
      Alcotest.test_case "cycle detection" `Quick test_cycles;
      Alcotest.test_case "topological sort" `Quick test_topological_sort;
      Alcotest.test_case "dot export" `Quick test_dot;
    ] )
