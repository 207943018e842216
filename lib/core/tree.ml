open Chronus_graph
open Chronus_flow

type crossing = {
  switch : Graph.node;
  new_hop : Graph.node;
  merge : Graph.node option;
  backward : bool;
  phi_new : int;
  phi_old : int option;
  bottleneck : int;
  admissible : bool;
}

let position_on path v =
  let rec scan i = function
    | [] -> None
    | x :: rest -> if x = v then Some i else scan (i + 1) rest
  in
  scan 0 path

let crossing_of inst v w =
  let g = inst.Instance.graph in
  let p_init = inst.Instance.p_init and p_fin = inst.Instance.p_fin in
  let dst = Instance.destination inst in
  let suffix =
    match Path.suffix_from p_fin w with
    | Some s -> s
    | None -> [ w ] (* w is always on p_fin, but stay defensive *)
  in
  (* First final-suffix switch (other than the destination) on the initial
     path: where the redirected stream meets the old stream's route. *)
  let merge =
    List.find_opt (fun z -> z <> dst && Path.mem z p_init) suffix
  in
  let segment_to target =
    match Path.prefix_to suffix target with
    | Some seg -> Graph.delay g v w + Path.delay g seg
    | None -> Graph.delay g v w
  in
  match merge with
  | None ->
      {
        switch = v;
        new_hop = w;
        merge = None;
        backward = false;
        phi_new = segment_to dst;
        phi_old = None;
        bottleneck = Path.bottleneck_capacity g p_init;
        admissible = true;
      }
  | Some z ->
      let pos_v = position_on p_init v and pos_z = position_on p_init z in
      let backward =
        match (pos_v, pos_z) with
        | Some pv, Some pz -> pz <= pv
        | _ -> false
      in
      let phi_new = segment_to z in
      let phi_old =
        if backward then None
        else
          match Path.suffix_from p_init v with
          | None -> None
          | Some s -> Option.map (Path.delay g) (Path.prefix_to s z)
      in
      let bottleneck =
        match Path.suffix_from p_init z with
        | Some s -> Path.bottleneck_capacity g s
        | None -> Path.bottleneck_capacity g p_init
      in
      let admissible =
        match phi_old with
        | None -> true (* backward crossings are ordering-only *)
        | Some po ->
            phi_new >= po || bottleneck >= 2 * inst.Instance.demand
      in
      {
        switch = v;
        new_hop = w;
        merge = Some z;
        backward;
        phi_new;
        phi_old;
        bottleneck;
        admissible;
      }

let crossings inst =
  List.filter_map
    (fun (u : Instance.update) ->
      match u.Instance.new_next with
      | None -> None
      | Some w -> Some (crossing_of inst u.Instance.switch w))
    (Instance.updates inst)

let check inst =
  Instance.is_trivial inst
  ||
  match Greedy.schedule ~mode:Greedy.Analytic inst with
  | Greedy.Scheduled _ -> true
  | Greedy.Infeasible _ -> false

let pp_crossing ppf c =
  Format.fprintf ppf
    "v%d --> v%d (merge %s%s, phi_new %d, phi_old %s, cons %d): %s" c.switch
    c.new_hop
    (match c.merge with None -> "-" | Some z -> Printf.sprintf "v%d" z)
    (if c.backward then ", backward" else "")
    c.phi_new
    (match c.phi_old with None -> "-" | Some p -> string_of_int p)
    c.bottleneck
    (if c.admissible then "admissible" else "must wait for drain")
