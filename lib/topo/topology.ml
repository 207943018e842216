open Chronus_graph

type params = { capacity : int; delay : int }

let default = { capacity = 1; delay = 1 }

let bidir ~params g u v =
  Graph.add_edge ~capacity:params.capacity ~delay:params.delay g u v;
  Graph.add_edge ~capacity:params.capacity ~delay:params.delay g v u

let with_nodes n =
  let g = Graph.create ~size:n () in
  for v = 0 to n - 1 do
    Graph.add_node g v
  done;
  g

let line ?(params = default) n =
  let g = with_nodes n in
  for v = 0 to n - 2 do
    bidir ~params g v (v + 1)
  done;
  g

let ring ?(params = default) n =
  let g = line ~params n in
  if n > 2 then bidir ~params g (n - 1) 0;
  g

let grid ?(params = default) w h =
  let g = with_nodes (w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let v = (y * w) + x in
      if x < w - 1 then bidir ~params g v (v + 1);
      if y < h - 1 then bidir ~params g v (v + w)
    done
  done;
  g

let complete ?(params = default) n =
  let g = with_nodes n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then
        Graph.add_edge ~capacity:params.capacity ~delay:params.delay g u v
    done
  done;
  g

let fat_tree ?(params = default) k =
  if k mod 2 <> 0 || k <= 0 then invalid_arg "Topology.fat_tree: k must be even";
  let half = k / 2 in
  let core_count = half * half in
  let agg_per_pod = half and edge_per_pod = half in
  (* Ids: cores first, then per pod: aggregation then edge switches. *)
  let core i = i in
  let agg pod i = core_count + (pod * (agg_per_pod + edge_per_pod)) + i in
  let edge pod i =
    core_count + (pod * (agg_per_pod + edge_per_pod)) + agg_per_pod + i
  in
  let total = core_count + (k * (agg_per_pod + edge_per_pod)) in
  let g = with_nodes total in
  for pod = 0 to k - 1 do
    for a = 0 to agg_per_pod - 1 do
      (* Each aggregation switch reaches k/2 cores. *)
      for c = 0 to half - 1 do
        bidir ~params g (agg pod a) (core ((a * half) + c))
      done;
      for e = 0 to edge_per_pod - 1 do
        bidir ~params g (agg pod a) (edge pod e)
      done
    done
  done;
  g

(* Google's B4 inter-datacenter WAN (Jain et al., SIGCOMM'13, Fig. 1):
   twelve sites, nineteen bidirectional inter-site links. *)
let b4_links =
  [
    (0, 1); (0, 2); (1, 2); (1, 4); (2, 4); (3, 4); (3, 5); (4, 5); (4, 6);
    (5, 7); (6, 7); (6, 8); (7, 8); (7, 9); (8, 9); (8, 10); (9, 10);
    (9, 11); (10, 11);
  ]

let b4 ?(params = default) () =
  let g = with_nodes 12 in
  List.iter (fun (u, v) -> bidir ~params g u v) b4_links;
  g

let wan ?(params = default) ~rng n =
  if n < 4 then invalid_arg "Topology.wan: need at least 4 sites";
  (* A resilience ring plus ~n/2 random chords: average degree ~3, the
     shape of real inter-datacenter WANs (B4 averages 3.2). The ring
     keeps the graph 2-edge-connected, so any single link always has a
     detour. *)
  let g = ring ~params n in
  let chords = ref (n / 2) in
  let attempts = ref (20 * n) in
  while !chords > 0 && !attempts > 0 do
    decr attempts;
    let u = Rng.int rng n in
    let v = Rng.int rng n in
    if u <> v && not (Graph.mem_edge g u v) then begin
      bidir ~params g u v;
      decr chords
    end
  done;
  g

let remap_edges f g =
  let g' = Graph.create ~size:(Graph.node_count g) () in
  List.iter (fun v -> Graph.add_node g' v) (Graph.nodes g);
  List.iter
    (fun (u, v, e) ->
      let e' = f (u, v, e) in
      Graph.add_edge ~capacity:e'.Graph.capacity ~delay:e'.Graph.delay g' u v)
    (Graph.edges g);
  g'

let randomize_delays ~rng ~lo ~hi g =
  remap_edges
    (fun (_, _, (e : Graph.edge)) -> { e with Graph.delay = Rng.in_range rng lo hi })
    g
