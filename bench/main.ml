(* The benchmark executable.

   Part 1 runs every entry of the figure registry ([Figures]: Table II,
   Figs. 6-11 of the paper's evaluation and the added figures) at the
   `quick` scale and prints the same rows/series the paper reports — set CHRONUS_SCALE=paper in the
   environment for the published scale (CHRONUS_SCALE=tiny is the CI
   smoke scale). When more than one domain is available (CHRONUS_JOBS,
   else the recommended domain count) the suite is run twice — once
   sequentially, once with the trial fan-out — the wall-clock of both
   passes is reported, and the deterministic experiment rows of the two
   passes are checked for equality.

   Part 2 runs Bechamel micro-benchmarks over every algorithmic
   component: the greedy scheduler (both engines), the
   dependency-relation and loop-check primitives, the oracle, the
   time-extended network construction, and the baselines.

   Both parts also land in BENCH_results.json (schema documented in
   EXPERIMENTS.md) so successive PRs can track the perf trajectory
   mechanically. CHRONUS_BENCH=experiments|micro|all (default all)
   selects the parts to run. *)

open Bechamel
module E = Chronus_experiments
module F = E.Figures
module Pool = Chronus_parallel.Pool
module Obs = Chronus_obs.Obs
open Chronus_flow
open Chronus_core
open Chronus_baselines
open Chronus_topo

(* ------------------------------------------------------------------ *)
(* Part 1: the experiment suite.                                       *)

(* One pass over the selected figures: each figure's output and
   observability delta (metrics observe, never decide, so they stay out
   of the digest), the pass's wall clock, and the wall clock of the
   trial-parallel figures alone. *)
type pass = {
  figures : (F.t * F.output * Obs.snapshot) list;
  wall_s : float;
  trial_wall_s : float;
}

let run_suite ~jobs figures scale =
  let now () = Unix.gettimeofday () in
  let t0 = now () in
  let trial_wall_s = ref 0. in
  let figures =
    List.map
      (fun (f : F.t) ->
        let t = now () in
        let out, snap = F.measure f ~jobs ~scale F.default_axes in
        if f.F.trial then trial_wall_s := !trial_wall_s +. (now () -. t);
        (f, out, snap))
      figures
  in
  { figures; wall_s = now () -. t0; trial_wall_s = !trial_wall_s }

(* Every figure's deterministic projection, so the digest must match
   between a sequential and a parallel pass bit for bit. *)
let digest p =
  List.map (fun ((f : F.t), (o : F.output), _) -> (f.F.key, o.F.det)) p.figures
  |> Fun.flip Marshal.to_string []
  |> Digest.string

let print_suite ~metrics p =
  List.iter
    (fun ((f : F.t), (o : F.output), snap) ->
      Printf.printf "\n================ %s ================\n%!" f.F.title;
      o.F.print ();
      if metrics then F.print_metrics f snap)
    p.figures

(* ------------------------------------------------------------------ *)
(* Part 2: micro-benchmarks.                                           *)

(* Deterministic instances reused across benchmark iterations. *)
let instance_of_size n =
  let rng = Rng.make (1000 + n) in
  Scenario.long_chain ~rng (Scenario.spec ~capacity_choices:[ 2 ] n)

let fig1 = Scenario.fig1_example ()

let greedy_tests =
  List.map
    (fun n ->
      let inst = instance_of_size n in
      Test.make
        ~name:(Printf.sprintf "greedy-analytic/%d" n)
        (Staged.stage (fun () ->
             ignore (Greedy.schedule ~mode:Greedy.Analytic inst))))
    [ 50; 200; 800 ]

let greedy_exact_tests =
  List.map
    (fun n ->
      let inst = instance_of_size n in
      Test.make
        ~name:(Printf.sprintf "greedy-exact/%d" n)
        (Staged.stage (fun () ->
             ignore (Greedy.schedule ~mode:Greedy.Exact inst))))
    [ 20; 60 ]

let primitive_tests =
  let inst = instance_of_size 200 in
  let drain = Drain.make inst in
  let remaining = Instance.switches_to_update inst in
  let sched =
    match Greedy.schedule ~mode:Greedy.Analytic inst with
    | Greedy.Scheduled s -> s
    | Greedy.Infeasible { partial; _ } -> partial
  in
  [
    Test.make ~name:"dependency-set/200"
      (Staged.stage (fun () ->
           ignore
             (Dependency.at inst drain Schedule.empty ~remaining ~time:0)));
    Test.make ~name:"drain-view/200"
      (Staged.stage (fun () -> ignore (Drain.view drain sched)));
    Test.make ~name:"loop-check/200"
      (Staged.stage (fun () ->
           ignore
             (Loop_check.timed inst Schedule.empty
                ~candidate:(List.hd remaining) ~time:0)));
    Test.make ~name:"oracle-evaluate/200"
      (Staged.stage (fun () -> ignore (Oracle.evaluate inst sched)));
    Test.make ~name:"time-extended-build/fig1"
      (Staged.stage (fun () ->
           ignore
             (Time_extended.build fig1.Instance.graph ~t_lo:(-5) ~t_hi:5)));
    Test.make ~name:"tree-check/fig1"
      (Staged.stage (fun () -> ignore (Tree.check fig1)));
  ]

(* The incremental-checker primitives, on the same 200-switch chain the
   [oracle-evaluate/200] benchmark uses so the probe cost reads directly
   against the from-scratch cost it replaces. The base schedule holds the
   last few greedy flips out; probes cycle through them (two or more
   distinct probes, so the single-flip memo never short-circuits the
   measurement). *)
let oracle_incremental_tests =
  let inst = instance_of_size 200 in
  let sched =
    match Greedy.schedule ~mode:Greedy.Analytic inst with
    | Greedy.Scheduled s -> s
    | Greedy.Infeasible { partial; _ } -> partial
  in
  let flips = Schedule.to_list sched in
  let held = min 4 (List.length flips - 1) in
  let cut = List.length flips - held in
  let base =
    List.filteri (fun i _ -> i < cut) flips
    |> List.fold_left (fun s (v, t) -> Schedule.add v t s) Schedule.empty
  in
  let probes = Array.of_list (List.filteri (fun i _ -> i >= cut) flips) in
  let ck = Oracle.Checker.create inst base in
  let cursor = ref 0 in
  let next () =
    let p = probes.(!cursor mod Array.length probes) in
    incr cursor;
    p
  in
  if Array.length probes = 0 then []
  else
    [
      Test.make ~name:"oracle-incremental/create/200"
        (Staged.stage (fun () -> ignore (Oracle.Checker.create inst base)));
      Test.make ~name:"oracle-incremental/probe/200"
        (Staged.stage (fun () ->
             let v, t = next () in
             ignore (Oracle.Checker.probe ck v t)));
      Test.make ~name:"oracle-incremental/push-pop/200"
        (Staged.stage (fun () ->
             let v, t = next () in
             ignore (Oracle.Checker.push ck v t);
             Oracle.Checker.pop ck));
    ]

(* The data-plane structures, at the acceptance load: 1000 rules per
   switch over 256 destinations, answered from per-destination
   buckets. *)
let flow_table_tests =
  let module FT = Chronus_sim.Flow_table in
  let act = { FT.set_tag = None; forward = FT.To_host } in
  let rules =
    let rng = Rng.make 77 in
    List.init 1000 (fun _ -> (Rng.int rng 8, Rng.int rng 256))
  in
  let t = FT.create () in
  List.iter
    (fun (priority, dst) ->
      ignore (FT.install t ~priority ~dst ~tag_match:FT.Any_tag act))
    rules;
  let probes =
    let rng = Rng.make 78 in
    Array.init 1024 (fun _ -> Rng.int rng 256)
  in
  let cursor = ref 0 in
  let next () =
    let d = probes.(!cursor land 1023) in
    incr cursor;
    d
  in
  [
    Test.make ~name:"flow-table/lookup/1000"
      (Staged.stage (fun () -> ignore (FT.lookup t ~dst:(next ()) ~tag:None)));
    Test.make ~name:"flow-table/modify/1000"
      (Staged.stage (fun () ->
           ignore (FT.modify_actions t ~dst:(next ()) ~tag_match:FT.Any_tag act)));
  ]

(* The prefix layer at the same load: 1000 aggregated rules in the
   longest-prefix trie, probed with random full-width addresses; plus
   one ORTC compilation of a 256-address fat-tree-shaped forwarding
   function (8 distinct next hops, 32 addresses each). *)
let prefix_table_tests =
  let module FT = Chronus_sim.Flow_table in
  let module TC = Chronus_sim.Table_compiler in
  let act v = { FT.set_tag = None; forward = FT.Out v } in
  let rng = Rng.make 80 in
  let space = 1 lsl FT.addr_bits in
  let p = FT.create () in
  for _ = 1 to 1000 do
    ignore
      (FT.install_prefix p
         ~priority:(Rng.int rng 8)
         ~prefix:(Rng.int rng space)
         ~len:(4 + Rng.int rng (FT.addr_bits - 4))
         ~tag_match:FT.Any_tag
         (act (Rng.int rng 16)))
  done;
  let probes = Array.init 1024 (fun _ -> Rng.int rng space) in
  let cursor = ref 0 in
  let next () =
    let d = probes.(!cursor land 1023) in
    incr cursor;
    d
  in
  let bindings =
    List.init 256 (fun i -> ((space / 2) lor i, act (i / 32)))
  in
  [
    Test.make ~name:"flow-table/prefix-lookup/1000"
      (Staged.stage (fun () -> ignore (FT.lookup p ~dst:(next ()) ~tag:None)));
    Test.make ~name:"table-compiler/compile/256"
      (Staged.stage (fun () -> ignore (TC.compile bindings)));
  ]

(* Steady-state hold model (push one, dispatch one) on the calendar
   queue holding 1000 pending events with microsecond-spread
   timestamps. *)
let event_queue_tests =
  let module EQ = Chronus_sim.Event_queue in
  let times =
    let rng = Rng.make 79 in
    Array.init 4096 (fun _ -> Rng.int rng 1_000_000)
  in
  let nothing () = () in
  let q = EQ.create () in
  for i = 0 to 999 do
    EQ.push q ~time:times.(i) nothing
  done;
  let cursor = ref 1000 in
  let next () =
    let t = times.(!cursor land 4095) in
    incr cursor;
    t
  in
  [
    Test.make ~name:"event-queue/push-pop"
      (Staged.stage (fun () ->
           EQ.push q ~time:(next ()) nothing;
           ignore (EQ.run_next q)));
  ]

(* The update service's admission pipeline, on the shared-WAN shape
   fig-service drives: deriving one rule-granular footprint for a
   min-hop reroute, admitting a 16-request batch through the budget's
   per-link accounting, and the pooled checker's retarget-and-probe
   gate that replaced per-transaction from-scratch oracle
   evaluations. *)
let service_tests =
  let module G = Chronus_graph.Graph in
  let module Path = Chronus_graph.Path in
  let module Shortest = Chronus_graph.Shortest in
  let module Footprint = Chronus_service.Footprint in
  let rng = Rng.make 91 in
  let g =
    Topology.wan ~params:{ Topology.capacity = 3; delay = 1 } ~rng 32
  in
  let nodes = Array.of_list (G.nodes g) in
  (* Random reroute pairs — a min-hop route plus the min-hop detour
     around one of its links, the request shape fig-service submits. *)
  let rec draw_pair tries =
    if tries > 500 then failwith "bench: WAN yielded no detour pair"
    else
      let src = nodes.(Rng.int rng (Array.length nodes)) in
      let dst = nodes.(Rng.int rng (Array.length nodes)) in
      match if src = dst then None else Shortest.hop_path g src dst with
      | None -> draw_pair (tries + 1)
      | Some current -> (
          match Path.edges current with
          | [] -> draw_pair (tries + 1)
          | edges -> (
              let u, v = Rng.pick rng edges in
              let g' = G.copy g in
              G.remove_edge g' u v;
              match Shortest.hop_path g' src dst with
              | Some target when not (Path.equal current target) ->
                  (current, target)
              | Some _ | None -> draw_pair (tries + 1)))
  in
  let pairs = Array.init 16 (fun _ -> draw_pair 0) in
  let footprints =
    Array.to_list
      (Array.mapi
         (fun fid (current, target) ->
           Footprint.of_flow ~graph:g ~fid ~demand:1 ~current ~target)
         pairs)
  in
  let cursor = ref 0 in
  let next_pair () =
    let p = pairs.(!cursor land 15) in
    incr cursor;
    p
  in
  let no_steady _ _ = 0 in
  (* Two single-flow reroute instances over the same graph; each
     iteration retargets the persistent session to the other one and
     probes its full flip set — the service's per-transaction gate. *)
  let prepared =
    Array.map
      (fun (current, target) ->
        let inst =
          Instance.create ~graph:g ~demand:1 ~p_init:current ~p_fin:target
        in
        let flips =
          match Greedy.schedule ~mode:Greedy.Analytic inst with
          | Greedy.Scheduled s -> Schedule.to_list s
          | Greedy.Infeasible { partial; _ } -> Schedule.to_list partial
        in
        (inst, flips))
      [| pairs.(0); pairs.(1) |]
  in
  let ck = Oracle.Checker.create (fst prepared.(0)) Schedule.empty in
  let ck_cursor = ref 0 in
  [
    Test.make ~name:"service/footprint"
      (Staged.stage (fun () ->
           let current, target = next_pair () in
           ignore
             (Footprint.of_flow ~graph:g ~fid:0 ~demand:1 ~current ~target)));
    Test.make ~name:"service/admission"
      (Staged.stage (fun () ->
           let b =
             Footprint.Budget.create ~capacity:(G.capacity g)
               ~steady:no_steady
           in
           List.iteri
             (fun rid fp -> ignore (Footprint.Budget.admit b ~rid fp))
             footprints));
    Test.make ~name:"service/checker-probe"
      (Staged.stage (fun () ->
           let inst, flips = prepared.(!ck_cursor land 1) in
           incr ck_cursor;
           Oracle.Checker.retarget ck inst;
           ignore (Oracle.Checker.probe_list ck flips)));
  ]

(* The effects runtime: the cost of spawning-and-retiring one fiber on a
   free-standing runtime, and one full controller -> switch -> ack round
   trip through the fiber-per-switch channel (the session ping fig-conns
   multiplies by tens of thousands). *)
let fiber_tests =
  let module Fiber = Chronus_fiber.Fiber in
  let clock = ref 0 in
  let rt =
    Fiber.runtime ~now:(fun () -> !clock) ~schedule:(fun _ _ -> ())
  in
  let engine = Chronus_sim.Engine.create () in
  let net = Chronus_sim.Network.create engine in
  Chronus_sim.Network.add_switch net 0;
  let ctrl = Chronus_sim.Controller.create net in
  [
    Test.make ~name:"fiber/spawn"
      (Staged.stage (fun () ->
           ignore (Fiber.spawn_root rt (fun () -> ()) : unit Fiber.t);
           Fiber.drain rt));
    Test.make ~name:"fiber/switch-rtt"
      (Staged.stage (fun () ->
           Chronus_sim.Controller.send ctrl
             ~ack:(fun _ -> ())
             ~switch:0
             (Chronus_sim.Controller.Remove
                { dst = 9_999; tag_match = Chronus_sim.Flow_table.Any_tag });
           Chronus_sim.Engine.run engine));
  ]

let baseline_tests =
  let inst = instance_of_size 60 in
  [
    Test.make ~name:"or-greedy-rounds/60"
      (Staged.stage (fun () ->
           ignore (Order_replacement.greedy_rounds inst)));
    Test.make ~name:"or-minimum-rounds/fig1"
      (Staged.stage (fun () ->
           ignore (Order_replacement.minimum_rounds fig1)));
    Test.make ~name:"opt-branch-and-bound/fig1"
      (Staged.stage (fun () ->
           ignore (Opt.solve ~budget:100_000 ~timeout:10.0 fig1)));
    Test.make ~name:"tp-rule-count/60"
      (Staged.stage (fun () -> ignore (Two_phase.rule_count inst)));
  ]

let benchmarks () =
  let tests =
    Test.make_grouped ~name:"chronus"
      (greedy_tests @ greedy_exact_tests @ primitive_tests
      @ oracle_incremental_tests @ service_tests @ flow_table_tests
      @ prefix_table_tests @ event_queue_tests @ fiber_tests
      @ baseline_tests)
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let nanos =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, nanos) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "\n================ micro-benchmarks ================\n";
  Printf.printf "%-45s %16s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun (name, nanos) ->
      let human =
        if Float.is_nan nanos then "n/a"
        else if nanos > 1e9 then Printf.sprintf "%8.3f  s" (nanos /. 1e9)
        else if nanos > 1e6 then Printf.sprintf "%8.3f ms" (nanos /. 1e6)
        else if nanos > 1e3 then Printf.sprintf "%8.3f us" (nanos /. 1e3)
        else Printf.sprintf "%8.0f ns" nanos
      in
      Printf.printf "%-45s %16s\n" name human)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* BENCH_results.json: a tiny hand-rolled JSON emitter (the repo has no
   JSON dependency and must not grow one).                             *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec emit b indent = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        if Float.is_nan f || Float.abs f = Float.infinity then
          Buffer.add_string b "null"
        else Buffer.add_string b (Printf.sprintf "%.6g" f)
    | String s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (escape s))
    | Obj fields ->
        let pad n = String.make n ' ' in
        Buffer.add_string b "{";
        List.iteri
          (fun i (key, v) ->
            if i > 0 then Buffer.add_string b ",";
            Buffer.add_string b
              (Printf.sprintf "\n%s\"%s\": " (pad (indent + 2)) (escape key));
            emit b (indent + 2) v)
          fields;
        if fields <> [] then
          Buffer.add_string b (Printf.sprintf "\n%s" (pad indent));
        Buffer.add_string b "}"

  let to_string t =
    let b = Buffer.create 1024 in
    emit b 0 t;
    Buffer.add_char b '\n';
    Buffer.contents b
end

(* The cumulative observability snapshot: counters/gauges as numbers,
   spans as {count, total_ns, max_ns} objects (since chronus-bench/2). *)
let metrics_json () =
  Json.Obj
    (List.map
       (fun (label, v) ->
         match v with
         | Obs.Counter n | Obs.Gauge n -> (label, Json.Int n)
         | Obs.Span s ->
             ( label,
               Json.Obj
                 [
                   ("count", Json.Int s.Obs.Span.count);
                   ("total_ns", Json.Int s.Obs.Span.total_ns);
                   ("max_ns", Json.Int s.Obs.Span.max_ns);
                 ] ))
       (Obs.snapshot ()))

(* A figure's report rows: one object per cell (since chronus-bench/5
   for scale_rows; the columns are listed in [Figures]). *)
let cells_json cells =
  let value = function
    | F.Int i -> Json.Int i
    | F.Float f -> Json.Float f
    | F.Bool b -> Json.Bool b
  in
  Json.Obj
    (List.map
       (fun (cell, cols) ->
         (cell, Json.Obj (List.map (fun (k, v) -> (k, value v)) cols)))
       cells)

let write_json ~path ~scale_name ~jobs ~host_cores ~experiments ~micro =
  let experiments_json =
    match experiments with
    | None -> Json.Null
    | Some (seq, par) ->
        let speedup a b = if b > 0. then Json.Float (a /. b) else Json.Null in
        let base =
          [
            ("wall_s_jobs1", Json.Float seq.wall_s);
            ("trial_wall_s_jobs1", Json.Float seq.trial_wall_s);
          ]
        in
        let parallel =
          match par with
          | None -> [ ("rows_identical", Json.Null) ]
          | Some p ->
              [
                ("wall_s_jobsN", Json.Float p.wall_s);
                ("trial_wall_s_jobsN", Json.Float p.trial_wall_s);
                ("speedup", speedup seq.wall_s p.wall_s);
                ("trial_speedup", speedup seq.trial_wall_s p.trial_wall_s);
                ("rows_identical", Json.Bool (digest seq = digest p));
              ]
        in
        Json.Obj (base @ parallel)
  in
  (* One object per figure that has a report, from the sequential pass;
     null when the figure did not run. *)
  let report (f : F.t) =
    match experiments with
    | None -> Json.Null
    | Some (seq, _) -> (
        match List.find_opt (fun (g, _, _) -> g == f) seq.figures with
        | Some (_, (o : F.output), _) -> cells_json o.F.cells
        | None -> Json.Null)
  in
  let reports =
    List.filter_map
      (fun (f : F.t) -> Option.map (fun name -> (name, report f)) f.F.report)
      F.all
  in
  let micro_json =
    match micro with
    | None -> Json.Null
    | Some rows ->
        Json.Obj (List.map (fun (name, ns) -> (name, Json.Float ns)) rows)
  in
  let doc =
    Json.Obj
      ([
         ("schema", Json.String "chronus-bench/10");
         ("scale", Json.String scale_name);
         ("jobs", Json.Int jobs);
         ("host_cores", Json.Int host_cores);
         ("experiments", experiments_json);
       ]
      @ reports
      @ [
          ("metrics", metrics_json ());
          ("microbench_ns_per_run", micro_json);
        ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  close_out oc;
  Printf.printf "\nwrote %s\n%!" path

(* ------------------------------------------------------------------ *)

let () =
  let scale_name =
    Option.value ~default:"quick" (Sys.getenv_opt "CHRONUS_SCALE")
  in
  let scale = E.Scale.parse scale_name in
  let jobs = Pool.default_jobs () in
  let part =
    match Sys.getenv_opt "CHRONUS_BENCH" with
    | None | Some "all" -> `All
    | Some "experiments" -> `Experiments
    | Some "micro" -> `Micro
    | Some other ->
        invalid_arg
          (Printf.sprintf
             "CHRONUS_BENCH must be experiments|micro|all, got %S" other)
  in
  let metrics =
    Array.exists (( = ) "--metrics") Sys.argv
    || Sys.getenv_opt "CHRONUS_METRICS" <> None
  in
  (* --figures a,b,c (or --figures=a,b,c): run only those registry keys
     — the dev loop for a single figure without the full pass. A missing
     value is an empty selection, which [Figures.select] rejects. *)
  let figures =
    let rec scan = function
      | [] -> None
      | [ "--figures" ] -> Some ""
      | "--figures" :: v :: _ -> Some v
      | a :: _ when String.starts_with ~prefix:"--figures=" a ->
          Some (String.sub a 10 (String.length a - 10))
      | _ :: rest -> scan rest
    in
    match scan (List.tl (Array.to_list Sys.argv)) with
    | None -> F.all
    | Some v -> (
        let keys =
          String.split_on_char ',' v
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        match F.select keys with
        | Ok figures -> figures
        | Error msg ->
            prerr_endline msg;
            exit 2)
  in
  let host_cores = Domain.recommended_domain_count () in
  let experiments =
    match part with
    | `Micro -> None
    | `All | `Experiments ->
        let seq = run_suite ~jobs:1 figures scale in
        let par =
          if jobs > 1 then Some (run_suite ~jobs figures scale) else None
        in
        (* The two passes print identical rows; show the suite once. *)
        print_suite ~metrics (Option.value ~default:seq par);
        Printf.printf "\nexperiment suite wall clock: %.2f s at jobs=1"
          seq.wall_s;
        (match par with
        | None -> print_newline ()
        | Some p ->
            Printf.printf ", %.2f s at jobs=%d (%.2fx; trial subset %.2fx)\n"
              p.wall_s jobs (seq.wall_s /. p.wall_s)
              (seq.trial_wall_s /. p.trial_wall_s);
            if digest seq <> digest p then begin
              Printf.eprintf
                "ERROR: sequential and parallel experiment rows differ\n%!";
              exit 1
            end
            else print_endline "sequential and parallel rows are identical");
        if host_cores = 1 && par <> None then
          print_endline
            "note: speedup not meaningful: 1 physical core (jobs > 1 \
             time-slices one core)";
        Some (seq, par)
  in
  let micro =
    match part with `Experiments -> None | `All | `Micro -> Some (benchmarks ())
  in
  let path =
    Option.value ~default:"BENCH_results.json"
      (Sys.getenv_opt "CHRONUS_BENCH_OUT")
  in
  write_json ~path ~scale_name ~jobs ~host_cores ~experiments ~micro;
  print_newline ()
