open Chronus_graph
open Chronus_flow

(* Forwarding graph under a given rule choice. [both] switches contribute
   their old *and* new edge. *)
let forwarding_graph inst ~new_rule ~both =
  let g = Graph.create () in
  let module Ints = Set.Make (Int) in
  let nodes =
    Ints.union
      (Ints.of_list inst.Instance.p_init)
      (Ints.of_list inst.Instance.p_fin)
  in
  let news = Ints.of_list new_rule and boths = Ints.of_list both in
  Ints.iter
    (fun v ->
      Graph.add_node g v;
      let old_edge = Instance.old_next inst v in
      let new_edge = Instance.new_next inst v in
      let add = function None -> () | Some w -> Graph.add_edge g v w in
      if Ints.mem v boths then begin
        add old_edge;
        add new_edge
      end
      else if Ints.mem v news then add new_edge
      else add old_edge)
    nodes;
  g

let round_safe inst ~done_ ~round =
  let g = forwarding_graph inst ~new_rule:done_ ~both:round in
  not (Cycle.has_cycle g)

(* Order replacement replaces rules; stale rules on switches that are only
   on the initial path are garbage-collected after the transition and play
   no part in the rounds. *)
let replaceable_switches inst =
  List.filter_map
    (fun (u : Instance.update) ->
      match u.Instance.kind with
      | Instance.Delete -> None
      | Instance.Modify | Instance.Add -> Some u.Instance.switch)
    (Instance.updates inst)

let greedy_rounds inst =
  let all = replaceable_switches inst in
  let rec build done_ remaining rounds =
    if remaining = [] then Some (List.rev rounds)
    else begin
      let round =
        List.fold_left
          (fun acc v ->
            if round_safe inst ~done_ ~round:(v :: acc) then v :: acc
            else acc)
          [] remaining
      in
      match round with
      | [] -> None
      | _ ->
          let round = List.sort compare round in
          build (done_ @ round)
            (List.filter (fun v -> not (List.mem v round)) remaining)
            (round :: rounds)
    end
  in
  build [] all []

type exact_result = {
  rounds : Graph.node list list option;
  optimal : bool;
  nodes_explored : int;
}

let minimum_rounds ?(budget = 200_000) inst =
  let all = replaceable_switches inst in
  let explored = ref 0 in
  let exhausted = ref false in
  let upper =
    match greedy_rounds inst with
    | Some rounds -> List.length rounds
    | None -> List.length all + 1
  in
  (* Depth-limited DFS: can the remaining switches be finished within
     [depth] more rounds? Rounds are built from the individually-safe
     candidates (any safe round is a subset of those, since removing
     switches from a round only removes edges). *)
  let rec fits done_ remaining depth =
    incr explored;
    if !explored > budget then begin
      exhausted := true;
      None
    end
    else if remaining = [] then Some []
    else if depth = 0 then None
    else begin
      let candidates =
        List.filter (fun v -> round_safe inst ~done_ ~round:[ v ]) remaining
      in
      if candidates = [] then None
      else begin
        (* Enumerate safe subsets of the candidates, largest-first bias:
           include each candidate unless it breaks round safety. *)
        let rec choose acc rest =
          match rest with
          | [] ->
              if acc = [] then None
              else begin
                let round = List.sort compare acc in
                match
                  fits (done_ @ round)
                    (List.filter (fun v -> not (List.mem v round)) remaining)
                    (depth - 1)
                with
                | Some rounds -> Some (round :: rounds)
                | None -> None
              end
          | v :: tl -> (
              let with_v =
                if round_safe inst ~done_ ~round:(v :: acc) then
                  choose (v :: acc) tl
                else None
              in
              match with_v with
              | Some _ as found -> found
              | None -> if !exhausted then None else choose acc tl)
        in
        choose [] candidates
      end
    end
  in
  let rec tighten depth best =
    if !exhausted || depth < 1 then best
    else
      match fits [] all depth with
      | Some rounds -> tighten (List.length rounds - 1) (Some rounds)
      | None -> best
  in
  let initial = greedy_rounds inst in
  let best = tighten (upper - 1) initial in
  { rounds = best; optimal = not !exhausted; nodes_explored = !explored }

let schedule_of_rounds ?(gap = 8) ~jitter rounds =
  let sched = ref Schedule.empty in
  List.iteri
    (fun i round ->
      List.iter
        (fun v ->
          let j = jitter ~round:i v in
          let j = if j < 0 || j >= gap then abs j mod gap else j in
          sched := Schedule.add v ((i * gap) + j) !sched)
        round)
    rounds;
  !sched
