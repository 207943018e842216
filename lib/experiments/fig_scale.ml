open Chronus_graph
open Chronus_sim
open Chronus_flow
open Chronus_topo
open Chronus_exec
module Obs = Chronus_obs.Obs

(* Scale figure: drive all three executors on big topologies — fat-trees
   (k = 4..32) and B4-like WANs — with compiled-prefix base forwarding,
   and report table compression, simulator throughput, per-lookup cost,
   and end-to-end update time versus topology size. Wall-clock fields
   are measured, so the benchmark digest drops them (like fig10's
   timings); the event/rule/span columns are deterministic. *)

type kind = Fat_tree of int | B4 | Wan of int

type row = {
  topo : string;
  switches : int;
  links : int;
  rules_exact : int;
  rules_compiled : int;
  compression : float;
  table_words : int;
  updates : int;
  events : int;
  chronus_span_s : float;
  tp_span_s : float;
  or_span_s : float;
  chronus_clean : bool;
  events_per_s : float;
  lookup_ns : float;
}

let name = "fig-scale"

(* Background forwarding state: every holder switch hosts this many
   addressable endpoints; an exact-per-destination scheme would install
   one rule per (switch, endpoint). *)
let hosts_per_holder = 4

let kind_label = function
  | Fat_tree k -> Printf.sprintf "fat-tree k=%d" k
  | B4 -> "b4"
  | Wan n -> Printf.sprintf "wan n=%d" n

(* A stable per-kind coordinate for RNG lanes, keyed by the kind's value
   (not its position in the cell list) so adding cells never perturbs
   existing rows. *)
let kind_code = function
  | Fat_tree k -> k
  | B4 -> 1_000
  | Wan n -> 2_000 + n

let addressing g = function
  | Fat_tree k -> Addressing.fat_tree ~hosts_per_holder k
  | B4 | Wan _ -> Addressing.flat ~hosts_per_holder ~holders:(Graph.nodes g) ()

(* Next hop of switch [v] towards holder [holder]. Fat-trees route
   analytically (up to a deterministic aggregation/core choice, down by
   the destination's pod/edge coordinates) — 512 Dijkstras over 1,280
   nodes would dominate the k=32 cell otherwise; flat topologies use
   the min-delay tree rooted at each holder, as before. *)
let fat_tree_forward k v holder =
  let half = k / 2 in
  let core_count = half * half in
  let agg p a = core_count + (p * k) + a in
  let edge p e = core_count + (p * k) + half + e in
  if v = holder then Flow_table.To_host
  else begin
    let t = holder - core_count in
    let dpod = t / k and dedge = (t mod k) - half in
    if v < core_count then
      (* Core j hangs off aggregation index j/half in every pod. *)
      Flow_table.Out (agg dpod (v / half))
    else
      let tv = v - core_count in
      let pod = tv / k and r = tv mod k in
      if r < half then
        (* Aggregation switch: down into its own pod, else to a core. *)
        if pod = dpod then Flow_table.Out (edge dpod dedge)
        else Flow_table.Out (r * half)
      else (* Edge switch: everything non-local goes up. *)
        Flow_table.Out (agg pod 0)
  end

let forward_fun g kind holders =
  match kind with
  | Fat_tree k -> fun v holder -> Some (fat_tree_forward k v holder)
  | B4 | Wan _ ->
      let trees = List.map (fun h -> (h, Shortest.dijkstra g h)) holders in
      fun v holder ->
        if v = holder then Some Flow_table.To_host
        else
          (* The graph is symmetric, so the predecessor on the
             holder->v tree is v's next hop towards the holder. *)
          Option.map
            (fun (_, pred) -> Flow_table.Out pred)
            (Hashtbl.find_opt (List.assoc holder trees) v)

(* Compile every switch's complete host-address -> action function into
   an aggregated prefix table. The compiler may emit a single length-0
   rule at the root; host addresses all carry the marker bit, so that
   rule is re-anchored at the marker subtree and the compiled base can
   never catch a raw switch-id destination — executor semantics on the
   instance's own flow are untouched. *)
let marker_root = 1 lsl (Addressing.width - 1)

let clamp_root (prefix, len, action) =
  if len = 0 then (marker_root, 1, action) else (prefix, len, action)

let compiled_preinstall g kind addressing =
  let holders = Addressing.holders addressing in
  let forward = forward_fun g kind holders in
  let mods = ref [] in
  let total = ref 0 in
  List.iter
    (fun v ->
      let bindings =
        List.concat_map
          (fun h ->
            match forward v h with
            | None -> []
            | Some fwd ->
                let action = { Flow_table.set_tag = None; forward = fwd } in
                List.init hosts_per_holder (fun i ->
                    (Addressing.addr_of addressing ~holder:h ~host:i, action)))
          holders
      in
      let compiled = List.map clamp_root (Table_compiler.compile bindings) in
      total := !total + List.length compiled;
      List.iter
        (fun (prefix, len, action) ->
          mods :=
            ( v,
              Controller.Install_prefix
                {
                  priority = 5;
                  prefix;
                  len;
                  tag_match = Flow_table.Any_tag;
                  action;
                } )
            :: !mods)
        compiled)
    (Graph.nodes g);
  (List.rev !mods, !total)

let instance_of ~seed kind =
  let rng = Rng.derive seed [ 14; kind_code kind ] in
  match kind with
  | Fat_tree k -> Scenario.fat_tree_reroute ~rng k
  | B4 ->
      let params = { Topology.capacity = 2; delay = 1 } in
      Scenario.detour ~rng (Topology.b4 ~params ())
  | Wan n ->
      let params = { Topology.capacity = 2; delay = 1 } in
      Scenario.detour ~rng (Topology.wan ~params ~rng n)

(* Per-lookup cost on a freshly loaded network: random (switch, host
   address) probes against the compiled tables; also the deterministic
   table-memory estimate over the same tables. *)
let measure_tables ~seed ~code g preinstall addrs =
  let engine = Engine.create () in
  let net = Network.create engine in
  List.iter (fun v -> Network.add_switch net v) (Graph.nodes g);
  List.iter
    (fun (switch, mod_) ->
      match mod_ with
      | Controller.Install_prefix { priority; prefix; len; tag_match; action } ->
          ignore
            (Flow_table.install_prefix (Network.table net switch) ~priority
               ~prefix ~len ~tag_match action)
      | _ -> ())
    preinstall;
  let words =
    List.fold_left
      (fun acc v -> acc + Flow_table.memory_words (Network.table net v))
      0 (Graph.nodes g)
  in
  let nodes = Array.of_list (Graph.nodes g) in
  let addrs = Array.of_list addrs in
  let rng = Rng.derive seed [ 16; code ] in
  let m = 100_000 in
  let queries =
    Array.init m (fun _ ->
        ( nodes.(Rng.int rng (Array.length nodes)),
          addrs.(Rng.int rng (Array.length addrs)) ))
  in
  let t0 = Obs.clock_ns () in
  Array.iter
    (fun (v, dst) ->
      ignore (Flow_table.lookup (Network.table net v) ~dst ~tag:None))
    queries;
  (float_of_int (Obs.clock_ns () - t0) /. float_of_int m, words)

(* Short warmup/drain, as in fig_robust: the figure multiplies three
   executors by several big topologies. *)
let config ~preinstall =
  {
    Exec_env.default with
    Exec_env.warmup = Sim_time.sec 1;
    drain = Sim_time.sec 2;
    preinstall;
  }

let run_cell ~seed kind =
  let inst = instance_of ~seed kind in
  let g = inst.Instance.graph in
  let addressing = addressing g kind in
  let addrs = Addressing.all_addrs addressing in
  let preinstall, rules_compiled = compiled_preinstall g kind addressing in
  let rules_exact = Graph.node_count g * List.length addrs in
  let config = config ~preinstall in
  let code = kind_code kind in
  let exec_seed lane = Rng.int (Rng.derive seed [ 15; code; lane ]) 0x3FFFFFFF in
  let time f =
    let t0 = Obs.clock_ns () in
    let r = f () in
    (r, float_of_int (Obs.clock_ns () - t0) /. 1e9)
  in
  let chronus, c_wall =
    time (fun () -> Timed_exec.run ~config ~seed:(exec_seed 0) inst)
  in
  let tp, t_wall =
    time (fun () -> Two_phase_exec.run ~config ~seed:(exec_seed 1) inst)
  in
  let ord, o_wall =
    time (fun () -> Order_exec.run ~config ~seed:(exec_seed 2) inst)
  in
  let events =
    chronus.Timed_exec.result.Exec_env.events
    + tp.Two_phase_exec.result.Exec_env.events
    + ord.Order_exec.result.Exec_env.events
  in
  let wall = c_wall +. t_wall +. o_wall in
  let lookup_ns, table_words = measure_tables ~seed ~code g preinstall addrs in
  {
    topo = kind_label kind;
    switches = Graph.node_count g;
    links = List.length (Graph.edges g);
    rules_exact;
    rules_compiled;
    compression =
      (if rules_compiled > 0 then
         float_of_int rules_exact /. float_of_int rules_compiled
       else 0.);
    table_words;
    updates = List.length (Instance.updates inst);
    events;
    chronus_span_s =
      Sim_time.to_sec chronus.Timed_exec.result.Exec_env.update_span;
    tp_span_s = Sim_time.to_sec tp.Two_phase_exec.result.Exec_env.update_span;
    or_span_s = Sim_time.to_sec ord.Order_exec.result.Exec_env.update_span;
    chronus_clean =
      Monitor.no_violations chronus.Timed_exec.result.Exec_env.violations;
    events_per_s = (if wall > 0. then float_of_int events /. wall else 0.);
    lookup_ns;
  }

let default_kinds scale =
  if scale.Scale.instances <= 4 then [ Fat_tree 4; Wan 8 ]
  else if scale.Scale.instances <= 10 then
    [ Fat_tree 4; Fat_tree 6; Fat_tree 8; Fat_tree 16; B4; Wan 16; Wan 32 ]
  else
    [
      Fat_tree 4; Fat_tree 8; Fat_tree 12; Fat_tree 16; Fat_tree 32; B4;
      Wan 32; Wan 64; Wan 128;
    ]

let run ?jobs ?(scale = Scale.quick) ?kinds () =
  let kinds = Option.value ~default:(default_kinds scale) kinds in
  let seed = scale.Scale.seed in
  (* One cell per topology; each owns RNG coordinates keyed by the
     kind's value, so rows are bit-identical at any job count and under
     any cell mix (wall-clock columns excepted, by nature). *)
  Chronus_parallel.Pool.parallel_map ?jobs (fun kind -> run_cell ~seed kind) kinds

let print rows =
  let open Chronus_stats in
  let table =
    Table.create
      ~headers:
        [
          "topology";
          "switches";
          "links";
          "rules exact";
          "compiled";
          "compr";
          "words";
          "updates";
          "events";
          "events/s";
          "lookup ns";
          "Chronus s";
          "TP s";
          "OR s";
          "clean";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.topo;
          string_of_int r.switches;
          string_of_int r.links;
          string_of_int r.rules_exact;
          string_of_int r.rules_compiled;
          Printf.sprintf "%.1fx" r.compression;
          string_of_int r.table_words;
          string_of_int r.updates;
          string_of_int r.events;
          Printf.sprintf "%.0f" r.events_per_s;
          Printf.sprintf "%.0f" r.lookup_ns;
          Printf.sprintf "%.2f" r.chronus_span_s;
          Printf.sprintf "%.2f" r.tp_span_s;
          Printf.sprintf "%.2f" r.or_span_s;
          (if r.chronus_clean then "yes" else "no");
        ])
    rows;
  print_endline
    "# Scale — compiled-table compression and update time vs. topology size";
  Table.print table
