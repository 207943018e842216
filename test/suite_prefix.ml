(* The prefix-compilation layer: Table_compiler semantic equivalence on
   random forwarding functions, deterministic compression on fat-tree
   shapes, and the Addressing layout's invariants — including that the
   analytically routed compiled base actually delivers every host
   address from every switch on a real fat-tree. *)

open Chronus_sim
open Chronus_topo
module FT = Flow_table
module TC = Table_compiler
module E = Chronus_experiments

let act v = { FT.set_tag = None; forward = FT.Out v }

let install_compiled rules =
  let t = FT.create () in
  List.iter
    (fun (prefix, len, action) ->
      ignore
        (FT.install_prefix t ~priority:5 ~prefix ~len ~tag_match:FT.Any_tag
           action))
    rules;
  t

(* Semantic equivalence: installing the compiled rules into a fresh
   table, every bound address must look up to exactly its bound action.
   Random functions over a clustered address pool (clusters make
   aggregation actually fire). *)
let run_compile seed =
  let rng = Rng.derive seed [ 83 ] in
  let n = 1 + Rng.int rng 120 in
  let bindings =
    List.init n (fun _ ->
        let cluster = Rng.int rng 4 lsl 12 in
        (cluster lor Rng.int rng 256, act (Rng.int rng 5)))
  in
  (* Last binding wins on duplicates — mirror that in the expectation. *)
  let expected = Hashtbl.create 64 in
  List.iter (fun (a, v) -> Hashtbl.replace expected a v) bindings;
  let compiled = TC.compile bindings in
  let t = install_compiled compiled in
  Hashtbl.iter
    (fun addr action ->
      match FT.lookup t ~dst:addr ~tag:None with
      | Some r when r.FT.action = action -> ()
      | Some r ->
          failwith
            (Printf.sprintf "addr 0x%x: compiled to %s, expected %s" addr
               (match r.FT.action.FT.forward with
               | FT.Out v -> string_of_int v
               | _ -> "?")
               (match action.FT.forward with
               | FT.Out v -> string_of_int v
               | _ -> "?"))
      | None -> failwith (Printf.sprintf "addr 0x%x: no rule" addr))
    expected;
  (* No rule set larger than the trivial one-per-address table. *)
  List.length compiled <= Hashtbl.length expected

let compile_equivalence =
  QCheck.Test.make ~count:200
    ~name:"compiled prefix table forwards every bound address correctly"
    QCheck.small_nat run_compile

let test_compile_edge_cases () =
  Alcotest.(check (list (triple int int (of_pp Fmt.nop))))
    "empty input compiles to the empty table" [] (TC.compile []);
  (* A constant function compiles to a single rule. *)
  let bindings = List.init 64 (fun i -> (0x8000 lor i, act 3)) in
  Alcotest.(check int) "constant function = one rule" 1
    (List.length (TC.compile bindings));
  (* Determinism: same input, same output. *)
  let b2 =
    List.init 100 (fun i -> (0x8000 lor (i * 37 mod 256), act (i mod 3)))
  in
  Alcotest.(check bool) "deterministic output" true
    (TC.compile b2 = TC.compile b2)

(* A fat-tree core switch's forwarding function — one next hop per pod —
   must compile to O(k) rules, not one per host. *)
let test_core_switch_compression () =
  List.iter
    (fun k ->
      let addressing = Addressing.fat_tree k in
      let holders = Addressing.holders addressing in
      let half = k / 2 in
      let core_count = half * half in
      (* Core 0's next hop for a host in pod p is agg(p, 0). *)
      let bindings =
        List.concat_map
          (fun h ->
            let pod = (h - core_count) / k in
            List.init (Addressing.hosts_per_holder addressing) (fun i ->
                ( Addressing.addr_of addressing ~holder:h ~host:i,
                  act (core_count + (pod * k)) )))
          holders
      in
      let compiled = TC.compile bindings in
      let exact = List.length bindings in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d core compiles to <= k+2 rules" k)
        true
        (List.length compiled <= k + 2);
      Alcotest.(check bool)
        (Printf.sprintf "k=%d core compression >= 4x" k)
        true
        (exact >= 4 * List.length compiled))
    [ 4; 8; 16; 32 ]

(* Addressing invariants: width matches the flow table's address space,
   every address is unique, carries the marker bit, and stays disjoint
   from raw switch ids. *)
let test_addressing_layout () =
  (* The address width is part of the table format: compiled prefixes,
     host addresses and the 16-bit layout all assume it. *)
  Alcotest.(check int) "Flow_table.addr_bits = 16" 16 FT.addr_bits;
  Alcotest.(check int) "Addressing.width = Flow_table.addr_bits"
    FT.addr_bits Addressing.width;
  List.iter
    (fun addressing ->
      let addrs = Addressing.all_addrs addressing in
      let uniq = List.sort_uniq compare addrs in
      Alcotest.(check int) "addresses are unique" (List.length addrs)
        (List.length uniq);
      List.iter
        (fun a ->
          Alcotest.(check bool) "marker bit set" true
            (a land (1 lsl (Addressing.width - 1)) <> 0);
          Alcotest.(check bool) "fits the width" true
            (a lsr Addressing.width = 0))
        addrs)
    [
      Addressing.fat_tree 4;
      Addressing.fat_tree 32;
      Addressing.flat ~holders:(List.init 128 Fun.id) ();
    ];
  (* Each holder's hosts share a prefix that covers exactly them: the
     longest prefix common to its own addresses. *)
  let addressing = Addressing.fat_tree 8 in
  let hosts h =
    List.init (Addressing.hosts_per_holder addressing) (fun i ->
        Addressing.addr_of addressing ~holder:h ~host:i)
  in
  let rec common_shift shift = function
    | a :: rest when List.exists (fun b -> b lsr shift <> a lsr shift) rest ->
        common_shift (shift + 1) (a :: rest)
    | _ -> shift
  in
  List.iter
    (fun h ->
      let mine = hosts h in
      let prefix = List.hd mine and shift = common_shift 0 mine in
      List.iter
        (fun h' ->
          List.iter
            (fun i ->
              let a = Addressing.addr_of addressing ~holder:h' ~host:i in
              Alcotest.(check bool) "prefix covers iff same holder" (h = h')
                (a lsr shift = prefix lsr shift))
            (List.init (Addressing.hosts_per_holder addressing) Fun.id))
        (Addressing.holders addressing))
    (Addressing.holders addressing)

(* End-to-end over the exact compiled tables the scale figure installs:
   from every switch, every host address must walk — hop by hop, along
   existing links only — to its holder's To_host rule within a
   node-count hop bound. Covers analytic fat-tree routing and the
   Dijkstra-routed flat topologies. *)
let test_compiled_delivery () =
  let module G = Chronus_graph.Graph in
  let check_kind label g kind =
    let addressing = E.Fig_scale.addressing g kind in
    let preinstall, _ = E.Fig_scale.compiled_preinstall g kind addressing in
    let tables = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace tables v (FT.create ())) (G.nodes g);
    List.iter
      (fun (switch, mod_) ->
        match mod_ with
        | Controller.Install_prefix { priority; prefix; len; tag_match; action }
          ->
            ignore
              (FT.install_prefix (Hashtbl.find tables switch) ~priority ~prefix
                 ~len ~tag_match action)
        | _ -> Alcotest.fail "preinstall must be Install_prefix only")
      preinstall;
    let bound = G.node_count g in
    List.iter
      (fun holder ->
        List.iter
          (fun host ->
            let addr = Addressing.addr_of addressing ~holder ~host in
            List.iter
              (fun start ->
                let rec walk v hops =
                  if hops > bound then
                    Alcotest.failf "%s: loop delivering 0x%x from %d" label
                      addr start
                  else
                    match
                      FT.lookup (Hashtbl.find tables v) ~dst:addr ~tag:None
                    with
                    | None ->
                        Alcotest.failf "%s: no rule for 0x%x at %d" label addr v
                    | Some r -> (
                        match r.FT.action.FT.forward with
                        | FT.To_host ->
                            if v <> holder then
                              Alcotest.failf
                                "%s: 0x%x delivered at %d, holder is %d" label
                                addr v holder
                        | FT.Out w ->
                            if not (G.mem_edge g v w) then
                              Alcotest.failf "%s: %d -> %d is not a link" label
                                v w;
                            walk w (hops + 1)
                        | FT.Drop ->
                            Alcotest.failf "%s: 0x%x dropped at %d" label addr v)
                in
                walk start 0)
              (G.nodes g))
          (List.init (Addressing.hosts_per_holder addressing) Fun.id))
      (Addressing.holders addressing)
  in
  check_kind "fat-tree k=4" (Topology.fat_tree 4) (E.Fig_scale.Fat_tree 4);
  check_kind "fat-tree k=8" (Topology.fat_tree 8) (E.Fig_scale.Fat_tree 8);
  check_kind "b4" (Topology.b4 ()) E.Fig_scale.B4

let suite =
  ( "prefix",
    [
      QCheck_alcotest.to_alcotest compile_equivalence;
      Alcotest.test_case "compiler edge cases" `Quick test_compile_edge_cases;
      Alcotest.test_case "core-switch compression is O(k)" `Quick
        test_core_switch_compression;
      Alcotest.test_case "addressing layout invariants" `Quick
        test_addressing_layout;
      Alcotest.test_case "delivery over the figure's compiled tables" `Quick
        test_compiled_delivery;
    ] )
