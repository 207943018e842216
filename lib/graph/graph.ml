type node = int

type edge = { capacity : int; delay : int }

(* Adjacency is kept in both directions so that the scheduling algorithms
   can walk old paths backwards (Alg. 4) without scanning every edge. *)
type t = {
  node_set : (node, unit) Hashtbl.t;
  out_adj : (node, (node * edge) list) Hashtbl.t;
  in_adj : (node, (node * edge) list) Hashtbl.t;
}

let create ?(size = 16) () =
  {
    node_set = Hashtbl.create size;
    out_adj = Hashtbl.create size;
    in_adj = Hashtbl.create size;
  }

let mem_node g v = Hashtbl.mem g.node_set v

let add_node g v = if not (mem_node g v) then Hashtbl.replace g.node_set v ()

let nodes g =
  Hashtbl.fold (fun v () acc -> v :: acc) g.node_set []
  |> List.sort compare

let node_count g = Hashtbl.length g.node_set

let adj_find tbl v = match Hashtbl.find_opt tbl v with None -> [] | Some l -> l

let remove_assoc_node v l = List.filter (fun (w, _) -> w <> v) l

let add_edge ?(capacity = 1) ?(delay = 1) g u v =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if capacity <= 0 then invalid_arg "Graph.add_edge: non-positive capacity";
  if delay < 0 then invalid_arg "Graph.add_edge: negative delay";
  add_node g u;
  add_node g v;
  let e = { capacity; delay } in
  Hashtbl.replace g.out_adj u ((v, e) :: remove_assoc_node v (adj_find g.out_adj u));
  Hashtbl.replace g.in_adj v ((u, e) :: remove_assoc_node u (adj_find g.in_adj v))

let remove_edge g u v =
  Hashtbl.replace g.out_adj u (remove_assoc_node v (adj_find g.out_adj u));
  Hashtbl.replace g.in_adj v (remove_assoc_node u (adj_find g.in_adj v))

let find_edge g u v = List.assoc_opt v (adj_find g.out_adj u)

let mem_edge g u v = find_edge g u v <> None

let capacity g u v =
  match find_edge g u v with Some e -> e.capacity | None -> raise Not_found

let delay g u v =
  match find_edge g u v with Some e -> e.delay | None -> raise Not_found

let sorted_adj l = List.sort (fun (a, _) (b, _) -> compare a b) l

let succ g v = sorted_adj (adj_find g.out_adj v)

let pred g v = sorted_adj (adj_find g.in_adj v)


let in_degree g v = List.length (adj_find g.in_adj v)

let edges g =
  Hashtbl.fold
    (fun u l acc -> List.fold_left (fun acc (v, e) -> (u, v, e) :: acc) acc l)
    g.out_adj []
  |> List.sort compare

let edge_count g =
  Hashtbl.fold (fun _ l acc -> acc + List.length l) g.out_adj 0

let copy g =
  {
    node_set = Hashtbl.copy g.node_set;
    out_adj = Hashtbl.copy g.out_adj;
    in_adj = Hashtbl.copy g.in_adj;
  }

let pp ppf g =
  Format.fprintf ppf "@[<v>graph: %d nodes, %d edges" (node_count g)
    (edge_count g);
  List.iter
    (fun (u, v, e) ->
      Format.fprintf ppf "@,  %d -> %d (cap %d, delay %d)" u v e.capacity
        e.delay)
    (edges g);
  Format.fprintf ppf "@]"

let equal g1 g2 = nodes g1 = nodes g2 && edges g1 = edges g2
