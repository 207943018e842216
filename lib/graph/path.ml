type t = Graph.node list

let source = function
  | [] -> invalid_arg "Path.source: empty path"
  | v :: _ -> v

let rec destination = function
  | [] -> invalid_arg "Path.destination: empty path"
  | [ v ] -> v
  | _ :: rest -> destination rest

let hops p = max 0 (List.length p - 1)

let rec edges = function
  | [] | [ _ ] -> []
  | u :: (v :: _ as rest) -> (u, v) :: edges rest

let mem v p = List.mem v p

let mem_edge u v p = List.mem (u, v) (edges p)

let rec next_hop p v =
  match p with
  | [] | [ _ ] -> None
  | u :: (w :: _ as rest) -> if u = v then Some w else next_hop rest v

let is_simple p =
  let seen = Hashtbl.create (List.length p) in
  List.for_all
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    p

let is_valid g p =
  p <> [] && is_simple p
  && List.for_all (fun v -> Graph.mem_node g v) p
  && List.for_all (fun (u, v) -> Graph.mem_edge g u v) (edges p)

let delay g p =
  List.fold_left (fun acc (u, v) -> acc + Graph.delay g u v) 0 (edges p)

let bottleneck_capacity g p =
  List.fold_left
    (fun acc (u, v) -> min acc (Graph.capacity g u v))
    max_int (edges p)

let suffix_from p v =
  let rec drop = function
    | [] -> None
    | u :: _ as rest when u = v -> Some rest
    | _ :: rest -> drop rest
  in
  drop p

let prefix_to p v =
  let rec take acc = function
    | [] -> None
    | u :: rest -> if u = v then Some (List.rev (u :: acc)) else take (u :: acc) rest
  in
  take [] p

let equal (p : t) (q : t) = p = q

let pp ppf p =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
       Format.pp_print_int)
    p

let to_string p = Format.asprintf "%a" pp p
