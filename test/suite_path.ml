open Chronus_graph

let g () =
  Helpers.graph_of
    [ (1, 2, 2, 1); (2, 3, 1, 2); (3, 4, 3, 3); (2, 4, 1, 1) ]

let p = [ 1; 2; 3; 4 ]

let test_endpoints () =
  Alcotest.(check int) "source" 1 (Path.source p);
  Alcotest.(check int) "destination" 4 (Path.destination p);
  Alcotest.(check int) "singleton" 9 (Path.source [ 9 ]);
  Alcotest.check_raises "empty source" (Invalid_argument "Path.source: empty path")
    (fun () -> ignore (Path.source []))

let test_hops_edges () =
  Alcotest.(check int) "hops" 3 (Path.hops p);
  Alcotest.(check int) "single node hops" 0 (Path.hops [ 1 ]);
  Alcotest.(check (list (pair int int)))
    "edges" [ (1, 2); (2, 3); (3, 4) ] (Path.edges p);
  Alcotest.(check bool) "mem_edge" true (Path.mem_edge 2 3 p);
  Alcotest.(check bool) "not mem_edge reversed" false (Path.mem_edge 3 2 p)

let test_next_hop () =
  Alcotest.(check (option int)) "next of 2" (Some 3) (Path.next_hop p 2);
  Alcotest.(check (option int)) "next of dst" None (Path.next_hop p 4);
  Alcotest.(check (option int)) "next of stranger" None (Path.next_hop p 7)

let test_validity () =
  let g = g () in
  Alcotest.(check bool) "valid" true (Path.is_valid g p);
  Alcotest.(check bool) "repeated node" false (Path.is_valid g [ 1; 2; 1 ]);
  Alcotest.(check bool) "missing edge" false (Path.is_valid g [ 1; 3 ]);
  Alcotest.(check bool) "unknown node" false (Path.is_valid g [ 1; 2; 9 ]);
  Alcotest.(check bool) "empty invalid" false (Path.is_valid g []);
  Alcotest.(check bool) "simple" true (Path.is_simple [ 1; 2; 3 ]);
  Alcotest.(check bool) "not simple" false (Path.is_simple [ 1; 2; 2 ])

let test_metrics () =
  let g = g () in
  Alcotest.(check int) "phi(p)" 6 (Path.delay g p);
  Alcotest.(check int) "bottleneck" 1 (Path.bottleneck_capacity g p);
  Alcotest.(check int) "shortcut delay" 2 (Path.delay g [ 1; 2; 4 ]);
  Alcotest.(check int)
    "single node bottleneck" max_int
    (Path.bottleneck_capacity g [ 1 ])

let test_sub_paths () =
  Alcotest.(check (option (list int)))
    "suffix" (Some [ 3; 4 ]) (Path.suffix_from p 3);
  Alcotest.(check (option (list int)))
    "suffix from src is whole" (Some p) (Path.suffix_from p 1);
  Alcotest.(check (option (list int))) "suffix missing" None
    (Path.suffix_from p 7);
  Alcotest.(check (option (list int)))
    "prefix" (Some [ 1; 2 ]) (Path.prefix_to p 2);
  Alcotest.(check (option (list int))) "prefix missing" None
    (Path.prefix_to p 7)

let test_pp () =
  Alcotest.(check string) "render" "1 -> 2 -> 3 -> 4" (Path.to_string p)

let suite =
  ( "path",
    [
      Alcotest.test_case "endpoints" `Quick test_endpoints;
      Alcotest.test_case "hops and edges" `Quick test_hops_edges;
      Alcotest.test_case "next hops" `Quick test_next_hop;
      Alcotest.test_case "validity" `Quick test_validity;
      Alcotest.test_case "delay and bottleneck" `Quick test_metrics;
      Alcotest.test_case "prefix and suffix" `Quick test_sub_paths;
      Alcotest.test_case "pretty printing" `Quick test_pp;
    ] )
