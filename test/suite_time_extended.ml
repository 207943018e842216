open Chronus_graph
open Chronus_flow

let test_build_counts () =
  let g = Helpers.unit_graph_of [ (0, 1); (1, 2) ] in
  let te = Time_extended.build g ~t_lo:0 ~t_hi:3 in
  Alcotest.(check int) "span" 4 (Time_extended.span te);
  Alcotest.(check (pair int int)) "window" (0, 3) (Time_extended.window te);
  (* 3 switches x 4 steps; each unit-delay link has 3 copies. *)
  Alcotest.(check int) "nodes" 12 (Graph.node_count (Time_extended.graph te));
  Alcotest.(check int) "edges" 6 (Helpers.edge_count (Time_extended.graph te))

let test_encode_decode () =
  let g = Helpers.unit_graph_of [ (0, 1); (1, 2) ] in
  let te = Time_extended.build g ~t_lo:(-2) ~t_hi:2 in
  List.iter
    (fun (v, t) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "roundtrip v%d(t%d)" v t)
        (v, t)
        (Time_extended.decode te (Time_extended.encode te v t)))
    [ (0, -2); (1, 0); (2, 2) ];
  Alcotest.check_raises "time outside window"
    (Invalid_argument "Time_extended.encode: t=5 outside [-2, 2]") (fun () ->
      ignore (Time_extended.encode te 0 5))

let test_link_structure () =
  (* A delay-2 link u -> v yields u(t) -> v(t+2), preserving capacity. *)
  let g = Helpers.graph_of [ (0, 1, 7, 2) ] in
  let te = Time_extended.build g ~t_lo:0 ~t_hi:3 in
  let net = Time_extended.graph te in
  let a = Time_extended.encode te 0 0 and b = Time_extended.encode te 1 2 in
  Alcotest.(check bool) "edge 0(0)->1(2)" true (Graph.mem_edge net a b);
  Alcotest.(check int) "capacity preserved" 7 (Graph.capacity net a b);
  (* No edge whose arrival would leave the window. *)
  let c = Time_extended.encode te 0 2 in
  Alcotest.(check int) "0(2) has no out-edge in window" 0
    (Helpers.out_degree net c)

let test_flow_links_match_oracle () =
  let inst = Helpers.fig1 () in
  let sched = Helpers.fig1_paper_schedule in
  let te = Time_extended.of_instance inst sched in
  let flow = Time_extended.flow_links te inst sched in
  let loads = Oracle.link_loads inst sched in
  Alcotest.(check int) "one flow link per load entry" (List.length loads)
    (List.length flow);
  List.iter
    (fun ((u, tu), (v, tv), load) ->
      Alcotest.(check bool)
        (Printf.sprintf "load entry for %d(%d)->%d(%d)" u tu v tv)
        true
        (List.mem_assoc (u, v, tu) loads);
      Alcotest.(check int) "load value" (List.assoc (u, v, tu) loads) load;
      Alcotest.(check int)
        "arrival time consistent"
        (tu + Graph.delay inst.Instance.graph u v)
        tv)
    flow

let test_dot_render () =
  let inst = Helpers.fig1 () in
  let te = Time_extended.of_instance inst Schedule.empty in
  let dot = Time_extended.to_dot te in
  Alcotest.(check bool) "non-empty digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph")

let suite =
  ( "time_extended",
    [
      Alcotest.test_case "build counts" `Quick test_build_counts;
      Alcotest.test_case "encode/decode" `Quick test_encode_decode;
      Alcotest.test_case "link structure (Definition 4)" `Quick
        test_link_structure;
      Alcotest.test_case "flow links match the oracle" `Quick
        test_flow_links_match_oracle;
      Alcotest.test_case "dot rendering" `Quick test_dot_render;
    ] )
