open Chronus_flow

type rule_count = { steady : int; transition_peak : int }

let path_switches p = max 0 (List.length p - 1)

let rule_count inst =
  let old_rules = path_switches inst.Instance.p_init in
  let new_rules = path_switches inst.Instance.p_fin in
  (* Old untagged rules stay installed while the tagged copies are added;
     the ingress additionally holds the stamping rule for the new tag. *)
  { steady = old_rules; transition_peak = old_rules + new_rules + 1 }

let chronus_rule_count inst =
  let module Ints = Set.Make (Int) in
  let on_path p = Ints.of_list p in
  Ints.cardinal
    (Ints.remove
       (Instance.destination inst)
       (Ints.union (on_path inst.Instance.p_init) (on_path inst.Instance.p_fin)))
