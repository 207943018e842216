type colour = White | Grey | Black

(* Depth-first colouring: an edge into a grey node closes a cycle. *)
let has_cycle g =
  let colour = Hashtbl.create 64 in
  let colour_of v =
    match Hashtbl.find_opt colour v with None -> White | Some c -> c
  in
  let exception Found in
  let rec visit v =
    Hashtbl.replace colour v Grey;
    List.iter
      (fun (w, _) ->
        match colour_of w with
        | White -> visit w
        | Grey -> raise Found
        | Black -> ())
      (Graph.succ g v);
    Hashtbl.replace colour v Black
  in
  match
    List.iter (fun v -> if colour_of v = White then visit v) (Graph.nodes g)
  with
  | () -> false
  | exception Found -> true

let topological_sort g =
  let indeg = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace indeg v (Graph.in_degree g v)) (Graph.nodes g);
  let module Ints = Set.Make (Int) in
  let ready =
    Hashtbl.fold
      (fun v d acc -> if d = 0 then Ints.add v acc else acc)
      indeg Ints.empty
  in
  let rec loop ready acc count =
    match Ints.min_elt_opt ready with
    | None ->
        if count = Graph.node_count g then Some (List.rev acc) else None
    | Some v ->
        let ready = Ints.remove v ready in
        let ready =
          List.fold_left
            (fun ready (w, _) ->
              let d = Hashtbl.find indeg w - 1 in
              Hashtbl.replace indeg w d;
              if d = 0 then Ints.add w ready else ready)
            ready (Graph.succ g v)
        in
        loop ready (v :: acc) (count + 1)
  in
  loop ready [] 0
