(* Reference model for [Chronus_sim.Flow_table]'s exact-match operations:
   the seed list implementation. Every operation scans the whole rule
   list, which makes the semantics easy to read off: the best match is the highest-priority,
   then oldest, rule whose destination and tag constraint fit, and ids
   grow monotonically across snapshot/restore. *)

open Chronus_sim.Flow_table

type t = { mutable rules : rule list; mutable next_id : int }

let create () = { rules = []; next_id = 0 }

let better a b =
  a.priority > b.priority || (a.priority = b.priority && a.id < b.id)

let tag_ok tag_match tag =
  match (tag_match, tag) with
  | Any_tag, _ -> true
  | Tag v, Some v' -> v = v'
  | Tag _, None -> false

let same_match rule ~dst ~tag_match = rule.dst = dst && rule.tag_match = tag_match

let install t ~priority ~dst ~tag_match action =
  let rule = { id = t.next_id; priority; dst; len = addr_bits; tag_match; action } in
  t.next_id <- t.next_id + 1;
  t.rules <- rule :: t.rules;
  rule

let modify_actions t ~dst ~tag_match action =
  let changed = ref 0 in
  t.rules <-
    List.map
      (fun r ->
        if same_match r ~dst ~tag_match then begin
          incr changed;
          { r with action }
        end
        else r)
      t.rules;
  !changed

let remove t ~dst ~tag_match =
  let removed = ref 0 in
  t.rules <-
    List.filter
      (fun r ->
        if same_match r ~dst ~tag_match then begin
          incr removed;
          false
        end
        else true)
      t.rules;
  !removed

let lookup t ~dst ~tag =
  let candidates =
    List.filter (fun r -> r.dst = dst && tag_ok r.tag_match tag) t.rules
  in
  List.fold_left
    (fun best r ->
      match best with
      | None -> Some r
      | Some b -> if better r b then Some r else best)
    None candidates

type snapshot = rule list

let snapshot t = t.rules

let restore t s = t.rules <- s

let size t = List.length t.rules

let rules t =
  List.sort
    (fun a b ->
      match compare b.priority a.priority with
      | 0 -> compare a.id b.id
      | c -> c)
    t.rules
