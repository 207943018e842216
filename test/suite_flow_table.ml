(* Differential suite: the prefix-capable Flow_table against the seed
   list implementation ([Model_flow_table]). Random operation sequences
   — installs, modifies, removes, snapshots, crash-restarts — must leave
   both structures in states that agree exactly: same sizes, same counts
   returned, same (priority, id) tie-breaks on every lookup, same
   [rules] listing. A second differential pits the longest-prefix trie
   against a naive scan-all-rules model. *)

open Chronus_sim
module FT = Flow_table
module L = Model_flow_table

let n_dsts = 5
let tags = [ FT.Any_tag; FT.Tag 1; FT.Tag 2 ]
let queries = [ None; Some 1; Some 2; Some 3 ]

let rule_pp (r : FT.rule) =
  Printf.sprintf "{id=%d; prio=%d; dst=%d}" r.FT.id r.FT.priority r.FT.dst

let agree t l =
  if FT.size t <> L.size l then failwith "size mismatch";
  let rt = FT.rules t and rl = L.rules l in
  if rt <> rl then
    failwith
      (Printf.sprintf "rules mismatch: [%s] vs [%s]"
         (String.concat ";" (List.map rule_pp rt))
         (String.concat ";" (List.map rule_pp rl)));
  for dst = 0 to n_dsts - 1 do
    List.iter
      (fun tag ->
        let a = FT.lookup t ~dst ~tag and b = L.lookup l ~dst ~tag in
        if a <> b then
          failwith
            (Printf.sprintf "lookup dst=%d tag=%s: %s vs %s" dst
               (match tag with None -> "-" | Some v -> string_of_int v)
               (match a with None -> "none" | Some r -> rule_pp r)
               (match b with None -> "none" | Some r -> rule_pp r)))
      queries
  done

let random_action rng =
  {
    FT.set_tag =
      (if Chronus_topo.Rng.bool rng then
         Some (Chronus_topo.Rng.int rng 3)
       else None);
    FT.forward =
      (match Chronus_topo.Rng.int rng 3 with
      | 0 -> FT.Out (Chronus_topo.Rng.int rng n_dsts)
      | 1 -> FT.To_host
      | _ -> FT.Drop);
  }

(* One differential run from a seed: both tables see the identical
   operation sequence; any state divergence raises. *)
let run_ops seed =
  let rng = Chronus_topo.Rng.derive seed [ 81 ] in
  let t = FT.create () and l = L.create () in
  let snaps = ref [] in
  for _ = 1 to 120 do
    let dst = Chronus_topo.Rng.int rng n_dsts in
    let tag_match = Chronus_topo.Rng.pick rng tags in
    (match Chronus_topo.Rng.int rng 8 with
    | 0 | 1 | 2 | 3 ->
        let priority = Chronus_topo.Rng.int rng 3 in
        let action = random_action rng in
        let a = FT.install t ~priority ~dst ~tag_match action in
        let b = L.install l ~priority ~dst ~tag_match action in
        if a <> b then failwith "install returned different rules"
    | 4 ->
        let action = random_action rng in
        let a = FT.modify_actions t ~dst ~tag_match action in
        let b = L.modify_actions l ~dst ~tag_match action in
        if a <> b then failwith "modify_actions count mismatch"
    | 5 ->
        let a = FT.remove t ~dst ~tag_match in
        let b = L.remove l ~dst ~tag_match in
        if a <> b then failwith "remove count mismatch"
    | 6 -> snaps := (FT.snapshot t, L.snapshot l) :: !snaps
    | _ -> (
        (* Crash-restart: both revert to the same persisted state; ids
           installed afterwards must stay younger on both sides. *)
        match !snaps with
        | [] -> ()
        | (st, sl) :: _ ->
            FT.restore t st;
            L.restore l sl));
    agree t l
  done;
  true

let differential =
  QCheck.Test.make ~count:80
    ~name:"prefix table = legacy list model on random exact ops"
    QCheck.small_nat run_ops

(* ------------------------------------------------------------------ *)
(* The longest-prefix trie against a naive model: a flat rule list where
   lookup scans everything and picks the (len desc, priority desc, id
   asc) maximum over covering, tag-satisfied rules — the semantics the
   .mli promises. Exercises exact rules shadowing aggregated prefixes,
   removal, and crash-restart. *)

let covers ~prefix ~len dst =
  len = 0 || dst lsr (FT.addr_bits - len) = prefix lsr (FT.addr_bits - len)

let model_tag_ok tm tag =
  match (tm, tag) with
  | FT.Any_tag, _ -> true
  | FT.Tag v, Some v' -> v = v'
  | FT.Tag _, None -> false

let model_lookup rules ~dst ~tag =
  List.fold_left
    (fun best (r : FT.rule) ->
      if not (covers ~prefix:r.FT.dst ~len:r.FT.len dst && model_tag_ok r.FT.tag_match tag)
      then best
      else
        match best with
        | None -> Some r
        | Some (b : FT.rule) ->
            if
              r.FT.len > b.FT.len
              || (r.FT.len = b.FT.len
                 && (r.FT.priority > b.FT.priority
                    || (r.FT.priority = b.FT.priority && r.FT.id < b.FT.id)))
            then Some r
            else best)
    None rules

let run_prefix_ops seed =
  let module Rng = Chronus_topo.Rng in
  let rng = Rng.derive seed [ 82 ] in
  let space = 1 lsl FT.addr_bits in
  let t = FT.create () in
  let model = ref [] in
  let snaps = ref [] in
  (* Drawing dsts near installed prefixes makes collisions/shadows
     likely; a few fully random dsts cover the empty-miss path. *)
  let probes t =
    for _ = 1 to 16 do
      let dst = Rng.int rng space in
      let tag = Rng.pick rng [ None; Some 1; Some 2 ] in
      let a = FT.lookup t ~dst ~tag and b = model_lookup !model ~dst ~tag in
      if a <> b then
        failwith
          (Printf.sprintf "prefix lookup dst=0x%x: %s vs model %s" dst
             (match a with None -> "none" | Some r -> rule_pp r)
             (match b with None -> "none" | Some r -> rule_pp r))
    done
  in
  for _ = 1 to 80 do
    let tag_match = Rng.pick rng tags in
    (match Rng.int rng 8 with
    | 0 | 1 | 2 ->
        let len = Rng.int rng (FT.addr_bits + 1) in
        let prefix = Rng.int rng space in
        let priority = Rng.int rng 3 in
        let r =
          FT.install_prefix t ~priority ~prefix ~len ~tag_match
            (random_action rng)
        in
        model := r :: !model
    | 3 | 4 ->
        (* Exact rules shadow any aggregated rule covering the same
           destination, whatever the priorities. *)
        let dst = Rng.int rng space in
        let priority = Rng.int rng 3 in
        let r = FT.install t ~priority ~dst ~tag_match (random_action rng) in
        model := r :: !model
    | 5 -> (
        (* Removal is exact-only: the compiled prefix base is never
           taken apart rule by rule, only restored whole. *)
        match
          List.filter (fun (r : FT.rule) -> r.FT.len = FT.addr_bits) !model
        with
        | [] -> ()
        | exact ->
            let (victim : FT.rule) = Rng.pick rng exact in
            let n =
              FT.remove t ~dst:victim.FT.dst ~tag_match:victim.FT.tag_match
            in
            let keep, dropped =
              List.partition
                (fun (r : FT.rule) ->
                  not
                    (r.FT.dst = victim.FT.dst && r.FT.len = FT.addr_bits
                   && r.FT.tag_match = victim.FT.tag_match))
                !model
            in
            if n <> List.length dropped then failwith "remove count mismatch";
            model := keep)
    | 6 -> snaps := (FT.snapshot t, !model) :: !snaps
    | _ -> (
        match !snaps with
        | [] -> ()
        | (st, sm) :: _ ->
            FT.restore t st;
            model := sm));
    if FT.size t <> List.length !model then failwith "prefix size mismatch";
    probes t
  done;
  true

let prefix_differential =
  QCheck.Test.make ~count:80
    ~name:"longest-prefix trie = naive scan model on random prefix ops"
    QCheck.small_nat run_prefix_ops

(* Remove must report the number of removed rules (single pass), on the
   table and the model alike. *)
let test_remove_count () =
  let act = { FT.set_tag = None; forward = FT.To_host } in
  let t = FT.create () and l = L.create () in
  List.iter
    (fun i ->
      ignore (FT.install t ~priority:i ~dst:7 ~tag_match:FT.Any_tag act);
      ignore (L.install l ~priority:i ~dst:7 ~tag_match:FT.Any_tag act))
    [ 0; 1; 2 ];
  ignore (FT.install t ~priority:0 ~dst:7 ~tag_match:(FT.Tag 1) act);
  ignore (L.install l ~priority:0 ~dst:7 ~tag_match:(FT.Tag 1) act);
  Alcotest.(check int) "indexed removes 3" 3 (FT.remove t ~dst:7 ~tag_match:FT.Any_tag);
  Alcotest.(check int) "legacy removes 3" 3 (L.remove l ~dst:7 ~tag_match:FT.Any_tag);
  Alcotest.(check int) "indexed keeps the tagged rule" 1 (FT.size t);
  Alcotest.(check int) "legacy keeps the tagged rule" 1 (L.size l);
  Alcotest.(check int) "removing nothing reports 0" 0
    (FT.remove t ~dst:9 ~tag_match:FT.Any_tag)

(* Snapshots share buckets with the live table: mutating after a
   snapshot must not leak into it. *)
let test_snapshot_isolated () =
  let act v = { FT.set_tag = None; forward = FT.Out v } in
  let t = FT.create () in
  ignore (FT.install t ~priority:1 ~dst:0 ~tag_match:FT.Any_tag (act 1));
  let snap = FT.snapshot t in
  ignore (FT.install t ~priority:2 ~dst:0 ~tag_match:FT.Any_tag (act 2));
  ignore (FT.modify_actions t ~dst:0 ~tag_match:FT.Any_tag (act 3));
  Alcotest.(check int) "live table has 2 rules" 2 (FT.size t);
  FT.restore t snap;
  Alcotest.(check int) "restore rewinds to 1 rule" 1 (FT.size t);
  (match FT.lookup t ~dst:0 ~tag:None with
  | Some r -> Alcotest.(check bool) "restored action" true (r.FT.action = act 1)
  | None -> Alcotest.fail "rule lost");
  (* next_id is not rewound: post-restore installs lose priority ties. *)
  let fresh = FT.install t ~priority:1 ~dst:0 ~tag_match:FT.Any_tag (act 9) in
  Alcotest.(check bool) "post-restore id younger" true (fresh.FT.id >= 2);
  match FT.lookup t ~dst:0 ~tag:None with
  | Some r -> Alcotest.(check int) "older rule still wins the tie" 0 r.FT.id
  | None -> Alcotest.fail "rule lost"

let test_size_observer () =
  let act = { FT.set_tag = None; forward = FT.To_host } in
  let t = FT.create () in
  let total = ref 0 in
  FT.on_size_change t (fun d -> total := !total + d);
  ignore (FT.install t ~priority:0 ~dst:1 ~tag_match:FT.Any_tag act);
  ignore (FT.install t ~priority:0 ~dst:1 ~tag_match:FT.Any_tag act);
  let snap = FT.snapshot t in
  ignore (FT.install t ~priority:0 ~dst:2 ~tag_match:FT.Any_tag act);
  Alcotest.(check int) "observer tracked installs" 3 !total;
  ignore (FT.remove t ~dst:1 ~tag_match:FT.Any_tag);
  Alcotest.(check int) "observer tracked removal" 1 !total;
  FT.restore t snap;
  Alcotest.(check int) "observer tracked restore delta" 2 !total;
  Alcotest.(check int) "observer agrees with size" (FT.size t) !total

(* Restore fires the observer exactly once, with the signed net change —
   not once per rule, and not at all when sizes already agree. Mixed
   exact and prefix rules on both sides of the snapshot. *)
let test_restore_single_delta () =
  let act = { FT.set_tag = None; forward = FT.To_host } in
  let t = FT.create () in
  ignore (FT.install t ~priority:0 ~dst:1 ~tag_match:FT.Any_tag act);
  ignore
    (FT.install_prefix t ~priority:0 ~prefix:0x8000 ~len:4
       ~tag_match:FT.Any_tag act);
  let snap = FT.snapshot t in
  let calls = ref [] in
  FT.on_size_change t (fun d -> calls := d :: !calls);
  ignore (FT.install t ~priority:0 ~dst:2 ~tag_match:FT.Any_tag act);
  ignore (FT.install t ~priority:0 ~dst:3 ~tag_match:FT.Any_tag act);
  ignore
    (FT.install_prefix t ~priority:0 ~prefix:0x4000 ~len:2
       ~tag_match:FT.Any_tag act);
  calls := [];
  FT.restore t snap;
  Alcotest.(check (list int)) "one signed delta = net change" [ -3 ] !calls;
  calls := [];
  FT.restore t snap;
  Alcotest.(check (list int)) "no-op restore stays silent" [] !calls;
  ignore (FT.remove t ~dst:1 ~tag_match:FT.Any_tag);
  calls := [];
  FT.restore t snap;
  Alcotest.(check (list int)) "growing restore emits one positive delta"
    [ 1 ] !calls

(* Crash-restart on a prefix table: a rebooting switch must come back
   with its compiled base and answer LPM lookups exactly as before. *)
let test_prefix_crash_restart () =
  let act v = { FT.set_tag = None; forward = FT.Out v } in
  let t = FT.create () in
  ignore
    (FT.install_prefix t ~priority:5 ~prefix:0x8000 ~len:1 ~tag_match:FT.Any_tag
       (act 1));
  ignore
    (FT.install_prefix t ~priority:5 ~prefix:0xc000 ~len:4 ~tag_match:FT.Any_tag
       (act 2));
  let persisted = FT.snapshot t in
  (* An in-flight update layers an exact rule and a longer prefix over
     the base, then the switch crashes. *)
  ignore (FT.install t ~priority:10 ~dst:0xc001 ~tag_match:FT.Any_tag (act 7));
  ignore
    (FT.install_prefix t ~priority:5 ~prefix:0x8000 ~len:2 ~tag_match:FT.Any_tag
       (act 9));
  (match FT.lookup t ~dst:0x8123 ~tag:None with
  | Some r ->
      Alcotest.(check bool) "longer prefix shadows base" true
        (r.FT.action = act 9)
  | None -> Alcotest.fail "lookup lost");
  (match FT.lookup t ~dst:0xc001 ~tag:None with
  | Some r -> Alcotest.(check bool) "update rule shadows base" true (r.FT.action = act 7)
  | None -> Alcotest.fail "lookup lost");
  FT.restore t persisted;
  Alcotest.(check int) "rebooted with the compiled base" 2 (FT.size t);
  (match FT.lookup t ~dst:0xc001 ~tag:None with
  | Some r ->
      Alcotest.(check bool) "longest prefix wins again" true (r.FT.action = act 2)
  | None -> Alcotest.fail "base rule lost");
  match FT.lookup t ~dst:0x8123 ~tag:None with
  | Some r ->
      Alcotest.(check bool) "short prefix covers the rest" true
        (r.FT.action = act 1)
  | None -> Alcotest.fail "base rule lost"

let suite =
  ( "flow-table",
    [
      QCheck_alcotest.to_alcotest differential;
      QCheck_alcotest.to_alcotest prefix_differential;
      Alcotest.test_case "remove counts in one pass" `Quick test_remove_count;
      Alcotest.test_case "snapshot isolation + monotone ids" `Quick
        test_snapshot_isolated;
      Alcotest.test_case "size observer" `Quick test_size_observer;
      Alcotest.test_case "restore emits one signed delta" `Quick
        test_restore_single_delta;
      Alcotest.test_case "crash-restart on a prefix table" `Quick
        test_prefix_crash_restart;
    ] )
