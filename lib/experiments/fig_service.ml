open Chronus_graph
open Chronus_flow
open Chronus_topo
module Service = Chronus_service.Service
module Obs = Chronus_obs.Obs

(* Service figure: drive the transactional update manager with a stream
   of reroute requests over a shared WAN and report commit/denial/
   serialization counts plus throughput and latency percentiles versus
   the offered rate (requests per processing round). The count and
   makespan columns are deterministic at any job count; the wall-clock
   columns (throughput, p50/p99 latency) are measured, so the benchmark
   digest drops them like fig10's timings. *)

type row = {
  offered_per_round : int;
  rounds : int;
  flows : int;
  submitted : int;
  committed : int;
  serialized : int;  (** requests deferred behind a conflict at least once *)
  serialized_rate : float;  (** [serialized /. submitted]; deterministic *)
  denied : int;  (** door denials plus denied/aborted verdicts *)
  batches : int;  (** admission batches the service ran, all rounds *)
  full_evals : int;
      (** from-scratch oracle evaluations the cell cost (checker-pool
          misses only); depends on pool timing, so dropped from
          determinism digests like the wall-clock columns *)
  full_evals_per_txn : float;  (** [full_evals /. max 1 committed] *)
  mean_makespan : float;  (** over committed non-trivial transactions *)
  throughput_per_s : float;  (** wall-measured committed transactions/s *)
  p50_ms : float;  (** wall-measured submit-to-verdict latency *)
  p99_ms : float;
}

(* The oracle's own counter (the registry is label-keyed and idempotent,
   so this is the same cell lib/dynflow increments). *)
let c_oracle_full = Obs.Counter.v "oracle.full_evals"

let name = "fig-service"

(* Shared-WAN workload: [n_flows] unit-demand flows on min-hop routes,
   drawn so the joint initial configuration is valid. Capacity 3 per
   link leaves room for transient merges while keeping contention real
   once several flows pile onto the same chord. *)
let wan_params = { Topology.capacity = 3; delay = 1 }

let build_flows ~rng g n_flows =
  let nodes = Array.of_list (Graph.nodes g) in
  let loads = Hashtbl.create 64 in
  let load u v = Option.value ~default:0 (Hashtbl.find_opt loads (u, v)) in
  let fits p =
    List.for_all
      (fun (u, v) -> load u v + 1 <= Graph.capacity g u v)
      (Path.edges p)
  in
  let occupy p =
    List.iter (fun (u, v) -> Hashtbl.replace loads (u, v) (load u v + 1))
      (Path.edges p)
  in
  let rec draw fid acc misses =
    if fid >= n_flows || misses > 200 then List.rev acc
    else
      let src = nodes.(Rng.int rng (Array.length nodes)) in
      let dst = nodes.(Rng.int rng (Array.length nodes)) in
      match if src = dst then None else Shortest.hop_path g src dst with
      | Some p when fits p ->
          occupy p;
          draw (fid + 1)
            ({ Instance.fid; f_demand = 1; f_init = p; f_fin = p } :: acc)
            misses
      | Some _ | None -> draw fid acc (misses + 1)
  in
  draw 0 [] 0

(* A reroute request: fail one random link of the flow's current path
   and take the min-hop detour (the WAN generator keeps the graph
   2-edge-connected, so one usually exists; if not, the request
   degenerates to a no-op that commits trivially). *)
let request_for ~rng g current =
  match Path.edges current with
  | [] -> current
  | edges -> (
      let u, v = Rng.pick rng edges in
      let g' = Graph.copy g in
      Graph.remove_edge g' u v;
      match
        Shortest.hop_path g' (Path.source current) (Path.destination current)
      with
      | Some p -> p
      | None -> current)

let default_rates scale =
  if scale.Scale.instances <= 4 then [ 1; 4 ] else [ 1; 2; 4; 8; 16 ]

let run ?jobs ?(scale = Scale.quick) ?rates () =
  let tiny = scale.Scale.instances <= 4 in
  let wan_n = if tiny then 12 else 32 in
  let n_flows = if tiny then 6 else 16 in
  let rounds = if tiny then 3 else max 4 (scale.Scale.instances / 2) in
  let rates = Option.value ~default:(default_rates scale) rates in
  let seed = scale.Scale.seed in
  (* Every row owns the generators at coordinates keyed by the rate
     *value*, so adding rates to the axis never perturbs existing rows;
     the per-round request stream is keyed by (rate, round) and consumed
     sequentially, so rows are identical at any job count. *)
  List.map
    (fun rate ->
      let g = Topology.wan ~params:wan_params ~rng:(Rng.derive seed [ 21; rate ]) wan_n in
      let flows = build_flows ~rng:(Rng.derive seed [ 22; rate ]) g n_flows in
      let multi = Instance.create_multi ~graph:g flows in
      let service = Service.create multi in
      let n_actual = List.length flows in
      let full_evals0 = Obs.Counter.value c_oracle_full in
      let wall_ns = ref 0 in
      let door_denials = ref 0 in
      let outcomes = ref [] in
      for round = 0 to rounds - 1 do
        let rng = Rng.derive seed [ 23; rate; round ] in
        for _k = 1 to rate do
          let fid = Rng.int rng n_actual in
          let current = Option.get (Service.current_path service fid) in
          let target = request_for ~rng g current in
          match Service.submit service ~fid ~target with
          | Ok _ -> ()
          | Error _ -> incr door_denials
        done;
        let t0 = Obs.clock_ns () in
        let os = Service.process ?jobs service in
        wall_ns := !wall_ns + (Obs.clock_ns () - t0);
        outcomes := os :: !outcomes
      done;
      let outcomes = List.concat (List.rev !outcomes) in
      let count f = List.length (List.filter f outcomes) in
      let committed =
        count (fun o ->
            match o.Service.verdict with
            | Service.Committed _ -> true
            | Service.Denied _ -> false)
      in
      let makespans =
        List.filter_map
          (fun o ->
            match o.Service.verdict with
            | Service.Committed { makespan; _ } when makespan > 0 ->
                Some (float_of_int makespan)
            | _ -> None)
          outcomes
      in
      let latencies_ms =
        List.map (fun o -> float_of_int o.Service.wall_ns /. 1e6) outcomes
      in
      let pct p =
        match latencies_ms with
        | [] -> 0.
        | l -> Chronus_stats.Descriptive.percentile p l
      in
      let wall_s = float_of_int !wall_ns /. 1e9 in
      let full_evals = Obs.Counter.value c_oracle_full - full_evals0 in
      let submitted = rate * rounds in
      let serialized = count (fun o -> o.Service.serialized_after <> []) in
      {
        offered_per_round = rate;
        rounds;
        flows = n_actual;
        submitted;
        committed;
        serialized;
        serialized_rate =
          (if submitted > 0 then
             float_of_int serialized /. float_of_int submitted
           else 0.);
        full_evals;
        full_evals_per_txn =
          float_of_int full_evals /. float_of_int (max 1 committed);
        denied =
          !door_denials
          + count (fun o ->
                match o.Service.verdict with
                | Service.Denied _ -> true
                | Service.Committed _ -> false);
        batches =
          List.fold_left (fun acc o -> max acc o.Service.batch) 0 outcomes;
        mean_makespan =
          (match makespans with
          | [] -> 0.
          | l -> Chronus_stats.Descriptive.mean l);
        throughput_per_s =
          (if wall_s > 0. then float_of_int committed /. wall_s else 0.);
        p50_ms = pct 50.;
        p99_ms = pct 99.;
      })
    rates

let print rows =
  let open Chronus_stats in
  let table =
    Table.create
      ~headers:
        [
          "offered/round";
          "rounds";
          "flows";
          "submitted";
          "committed";
          "serialized";
          "denied";
          "batches";
          "full evals";
          "fe/txn";
          "makespan";
          "txn/s";
          "p50 ms";
          "p99 ms";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.offered_per_round;
          string_of_int r.rounds;
          string_of_int r.flows;
          string_of_int r.submitted;
          string_of_int r.committed;
          string_of_int r.serialized;
          string_of_int r.denied;
          string_of_int r.batches;
          string_of_int r.full_evals;
          Printf.sprintf "%.2f" r.full_evals_per_txn;
          Printf.sprintf "%.1f" r.mean_makespan;
          Printf.sprintf "%.0f" r.throughput_per_s;
          Printf.sprintf "%.3f" r.p50_ms;
          Printf.sprintf "%.3f" r.p99_ms;
        ])
    rows;
  print_endline
    "# Update service — throughput and latency vs. offered update rate";
  Table.print table
