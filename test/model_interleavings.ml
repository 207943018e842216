(* Reference model for [Order_replacement.round_safe]: a round is safe
   iff every subset of it, applied on top of the switches already
   updated, leaves the forwarding graph loop-free — each asynchronous
   interleaving of the round passes through one such configuration.
   Exponential in the round size; the shipped predicate is the
   polynomial characterisation of the same set. *)

open Chronus_graph
open Chronus_flow

(* Every switch on either path forwards by its new rule if [updated],
   else by its old one. *)
let forwarding_graph inst ~updated =
  let g = Graph.create () in
  List.iter
    (fun v ->
      Graph.add_node g v;
      let next =
        if List.mem v updated then Instance.new_next inst v
        else Instance.old_next inst v
      in
      Option.iter (fun w -> Graph.add_edge g v w) next)
    (List.sort_uniq compare (inst.Instance.p_init @ inst.Instance.p_fin));
  g

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let subs = subsets rest in
      subs @ List.map (fun s -> x :: s) subs

let loop_free inst ~done_ ~round =
  List.for_all
    (fun applied ->
      not (Cycle.has_cycle (forwarding_graph inst ~updated:(done_ @ applied))))
    (subsets round)
