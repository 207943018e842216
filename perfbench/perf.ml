(* The repository benchmark.

     perf.exe run --workload W --seed S --seconds T --trace 0|1 [--smoke]
     perf.exe repeat --runs N --out FILE [--seed S] [--distinct-seeds]
                     BASE_PERF_EXE [CHANGE_PERF_EXE]
     perf.exe compare FILE
     perf.exe smoke

   [run] executes one workload (Workloads) in this process on one
   domain. With --trace 0 it makes passes over fresh batches of the
   workload for T seconds and prints every end-to-end metric. With
   --trace 1 it runs pass 0 three times, the middle one traced, and
   prints the per-layer metrics of the traced pass. Either way the
   last line of stdout is one JSON object {correct, attempted, failed,
   metrics}, and the exit code is 1 when the correctness gate fails.
   [repeat], [compare] and [smoke] read BENCHMARK.json from the current
   directory, which must be the root of the checkout. See README.md for
   what each metric means. *)

module Obs = Chronus_obs.Obs
module W = Workloads

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2)
    fmt

let parse_args name args specs =
  let anon = ref [] in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list (("perf " ^ name) :: args))
       specs
       (fun a -> anon := a :: !anon)
       ("usage: perf.exe " ^ name ^ " [options]")
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  List.rev !anon

let find_workload ~smoke name =
  match List.find_opt (fun w -> w.W.name = name) (W.all ~smoke) with
  | Some w -> w
  | None ->
      die "unknown workload %S (have: %s)" name
        (String.concat ", " (List.map (fun w -> w.W.name) (W.all ~smoke)))

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let percentile p = function
  | [] -> 0.
  | l -> Chronus_stats.Descriptive.percentile p l

let median = percentile 50.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so spreads printed here are the
   ones the acceptance rule uses. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Output. *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed ~digest metrics =
  List.iter
    (fun (name, value, unit) ->
      Printf.printf "%-28s %16.6f %s\n" name value unit)
    metrics;
  Printf.printf "outputs_digest %s\n" digest;
  Printf.printf "correct %b attempted %d failed %d\n" correct attempted failed;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number value) unit)
          metrics))

let heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let pass_digest (p : W.pass) =
  Digest.to_hex (Digest.string (Buffer.contents p.W.digest))

(* ------------------------------------------------------------------ *)
(* One pass: a fresh set-up of pass [pass]'s inputs, then every
   operation of the batch, then the end-of-pass check. Returns the pass
   with its set-up, batch and total times. *)

let one_pass w ~seed ~pass ~trace =
  if trace then Hashtbl.reset W.layer_ns;
  W.tracing := trace;
  let t0 = Obs.clock_ns () in
  let op, finish = w.W.setup seed pass in
  let p = W.new_pass w in
  let t1 = Obs.clock_ns () in
  for i = 0 to w.W.batch - 1 do
    op p i;
    Host.tick ()
  done;
  let t2 = Obs.clock_ns () in
  finish p;
  let t3 = Obs.clock_ns () in
  W.tracing := false;
  (p, t1 - t0 + p.W.setup_ns, t2 - t1 - p.W.setup_ns, t3 - t0)

let ns_to_ms ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* --trace 0: the end-to-end metrics. A run makes passes 0, 1, 2, ...,
   each over fresh inputs, until --seconds have gone by, and at least
   [min_passes]. Each batch is sized so that a pass takes one to two
   seconds on the host README.md describes. Every time a pass measures
   is divided by the pass's host slowdown (Host). A faster build makes
   more passes, which only adds samples: the time metrics are medians
   and percentiles, never minima or sums over passes, and the metrics
   that are not times come from the first [min_passes] passes, the same
   work in every run with the seed.

   - setup_s and throughput_per_s: the median over passes;
   - latency_p50_ms and latency_p90_ms: percentiles of every latency
     sample of the run;
   - peak_heap_mb: the top of the heap after the first [min_passes]
     passes;
   - makespan_mean: over the schedules of the first [min_passes] passes;
   - outputs_digest: pass 0's, as in a traced run. *)

let min_passes = 3

let run_untraced w ~seed ~seconds =
  let t_end = Obs.clock_ns () + int_of_float (seconds *. 1e9) in
  let setup_s = ref [] and throughput = ref [] and slowdowns = ref [] in
  let latency = ref [] in
  let attempted = ref 0 and failed = ref 0 and pass = ref 0 in
  let makespan_sum = ref 0 and makespan_n = ref 0 in
  let digest = ref "" and peak_heap = ref 0. in
  while !pass < min_passes || Obs.clock_ns () < t_end do
    Gc.full_major ();
    Host.start_pass ();
    let p, setup_ns, batch_ns, _ = one_pass w ~seed ~pass:!pass ~trace:false in
    let s = median (Host.end_pass ()) /. Host.nominal_ns in
    Printf.printf "pass %d: set-up %.4f s, batch %.3f s, host slowdown %.3f\n"
      !pass
      (float_of_int setup_ns /. 1e9)
      (float_of_int batch_ns /. 1e9)
      s;
    slowdowns := s :: !slowdowns;
    setup_s := (float_of_int setup_ns /. 1e9 /. s) :: !setup_s;
    throughput :=
      (ratio (float_of_int p.W.work) (float_of_int p.W.busy_ns /. 1e9) *. s)
      :: !throughput;
    latency :=
      Float.Array.of_list
        (Array.fold_left
           (fun acc ns -> if ns >= 0 then (ns_to_ms ns /. s) :: acc else acc)
           [] p.W.latency_ns)
      :: !latency;
    attempted := !attempted + p.W.attempted;
    failed := !failed + p.W.failed;
    if !pass = 0 then digest := pass_digest p;
    if !pass < min_passes then begin
      makespan_sum := !makespan_sum + p.W.makespan_sum;
      makespan_n := !makespan_n + p.W.makespan_n;
      peak_heap := heap_mb ()
    end;
    incr pass
  done;
  let lat = Float.Array.to_list (Float.Array.concat !latency) in
  let metrics =
    [
      ("setup_s", median !setup_s, "s");
      ("throughput_per_s", median !throughput, "1/s");
      ("latency_p50_ms", percentile 50. lat, "ms");
      ("latency_p90_ms", percentile 90. lat, "ms");
      ("peak_heap_mb", !peak_heap, "MB");
      ( "makespan_mean",
        ratio (float_of_int !makespan_sum) (float_of_int !makespan_n),
        "steps" );
    ]
  in
  Printf.printf
    "workload %s seed %d: %d passes of %d operations, %d latency samples, \
     median host slowdown %.3f\n"
    w.W.name seed !pass w.W.batch (List.length lat) (median !slowdowns);
  let correct = !failed = 0 in
  print_result ~correct ~attempted:!attempted ~failed:!failed ~digest:!digest
    metrics;
  correct

(* ------------------------------------------------------------------ *)
(* --trace 1: the per-layer metrics of a traced pass, checked against
   untraced passes over the same batch. *)

(* Three passes: an untraced warm-up, the traced pass, and the untraced
   pass the tracing overhead is measured against — so neither side of
   that comparison pays the process's cold start. *)
let run_traced w ~seed =
  Gc.full_major ();
  let warm, _, _, _ = one_pass w ~seed ~pass:0 ~trace:false in
  Gc.full_major ();
  let before = Obs.snapshot () and gc0 = Gc.quick_stat ()
  and minor0 = Gc.minor_words () in
  let p, _, batch_traced, wall_ns =
    one_pass w ~seed ~pass:0 ~trace:true
  in
  let after = Obs.snapshot () and gc1 = Gc.quick_stat ()
  and minor1 = Gc.minor_words () in
  Gc.full_major ();
  let pu, _, batch_untraced, _ =
    one_pass w ~seed ~pass:0 ~trace:false
  in
  let d = Obs.diff before after in
  let count label =
    match List.assoc_opt label d with
    | Some (Obs.Counter c) -> float_of_int c
    | _ -> 0.
  in
  let gauge label =
    match List.assoc_opt label after with
    | Some (Obs.Gauge g) -> float_of_int g
    | _ -> 0.
  in
  let span label =
    match List.assoc_opt label d with
    | Some (Obs.Span s) -> s
    | _ -> { Obs.Span.count = 0; total_ns = 0; max_ns = 0 }
  in
  let ms = W.layer_ms in
  let ops = float_of_int p.W.attempted in
  let wall_ms = float_of_int wall_ns /. 1e6 in
  let accounted = Hashtbl.fold (fun _ r acc -> acc + !r) W.layer_ns 0 in
  let unaccounted_ms = wall_ms -. (float_of_int accounted /. 1e6) in
  let hits = count "oracle.cache_hits"
  and retraced = count "oracle.cohorts_retraced" in
  let txn = span "service.txn" in
  let txn_mean_ms =
    ratio (ns_to_ms txn.Obs.Span.total_ns) (float_of_int txn.Obs.Span.count)
  in
  let batches = count "service.batches" in
  let events = count "sim.events_dispatched" in
  let requests = W.fact p "requests" in
  let verdicts =
    List.filter (fun ns -> ns >= 0) (Array.to_list p.W.latency_ns)
  in
  let verdict_mean_ms =
    ratio
      (ns_to_ms (List.fold_left ( + ) 0 verdicts))
      (float_of_int (List.length verdicts))
  in
  let metrics =
    [
      ("topo.generate_ms", ms "topo.generate", "ms");
      ("core.schedule_ms", ms "core.schedule", "ms");
      ( "core.schedule_calls",
        float_of_int (span "greedy.schedule").Obs.Span.count,
        "count" );
      ("core.rounds", count "greedy.rounds", "count");
      ("core.candidate_evals", count "greedy.candidate_evals", "count");
      ("core.feasibility_checks", count "greedy.feasibility_checks", "count");
      ("dynflow.evaluate_ms", ms "dynflow.evaluate", "ms");
      ("dynflow.cache_hits", hits, "count");
      ("dynflow.cohorts_retraced", retraced, "count");
      ("dynflow.retrace_ratio", ratio retraced (hits +. retraced), "ratio");
      ("dynflow.full_evals", count "oracle.full_evals", "count");
      ("dynflow.retargets", count "oracle.retargets", "count");
      ("service.create_ms", ms "service.create", "ms");
      ("service.submit_ms", ms "service.submit", "ms");
      ("service.process_ms", ms "service.process", "ms");
      ("service.txn_mean_ms", txn_mean_ms, "ms");
      ( "service.wait_mean_ms",
        (if requests > 0. then verdict_mean_ms -. txn_mean_ms else 0.),
        "ms" );
      ("service.batches", batches, "count");
      ( "service.admitted_per_batch",
        ratio (count "service.committed" +. count "service.aborted") batches,
        "count" );
      ("service.footprint_reuse", count "service.footprint_reuse", "count");
      ("service.queue_depth", gauge "service.queue_depth", "count");
      ( "service.serialized_ratio",
        ratio (W.fact p "serialized") requests,
        "ratio" );
      ("service.denied_ratio", ratio (W.fact p "denied") requests, "ratio");
      ("sim.compile_ms", ms "sim.compile", "ms");
      ("sim.run_ms", ms "sim.run", "ms");
      ("sim.ns_per_event", ratio (ms "sim.run" *. 1e6) events, "ns");
      ("sim.events", events, "count");
      ("sim.queue_high_water", gauge "sim.queue_high_water", "count");
      ("sim.queue_resizes", count "sim.queue_resizes", "count");
      ("sim.flow_lookups", count "sim.flow_lookups", "count");
      ("exec.build_ms", ms "exec.build", "ms");
      ("exec.launch_ms", ms "exec.launch", "ms");
      ("exec.finish_ms", ms "exec.finish", "ms");
      ("exec.rule_installs", count "exec.rule_installs", "count");
      ("exec.update_span_ms", ratio (W.fact p "update_span_ms") ops, "ms");
      ("fiber.lifecycle_ms", ms "fiber.lifecycle", "ms");
      ("fiber.spawns", count "fiber.spawns", "count");
      ("fiber.context_switches", count "fiber.context_switches", "count");
      ( "fiber.switches_per_event",
        ratio (count "fiber.context_switches") events,
        "ratio" );
      ("fiber.peak_live", W.fact p "peak_live", "count");
      ("ocaml.minor_words_per_op", ratio (minor1 -. minor0) ops, "words");
      ( "ocaml.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
        "count" );
      ("bench.wall_ms", wall_ms, "ms");
      ("bench.generate_ms", ms "bench.generate", "ms");
      ("bench.check_ms", ms "bench.check", "ms");
      ("bench.unaccounted_ms", unaccounted_ms, "ms");
      ( "bench.trace_overhead_pct",
        100.
        *. (ratio (float_of_int batch_traced) (float_of_int batch_untraced)
           -. 1.),
        "%" );
    ]
  in
  let digest = pass_digest p in
  let same_digest =
    List.for_all (fun q -> String.equal digest (pass_digest q)) [ warm; pu ]
  in
  if not same_digest then
    Printf.eprintf "correctness gate: traced digest %s <> untraced %s / %s\n"
      digest (pass_digest warm) (pass_digest pu);
  let accounted_ok = Float.abs unaccounted_ms <= 0.05 *. wall_ms in
  if not accounted_ok then
    Printf.eprintf
      "layer accounting: %.1f of the %.1f traced ms are unaccounted (> 5%%)\n"
      unaccounted_ms wall_ms;
  Printf.printf "workload %s seed %d: traced pass of %d operations\n"
    w.W.name seed w.W.batch;
  let failed = warm.W.failed + p.W.failed + pu.W.failed in
  let correct = failed = 0 && same_digest && accounted_ok in
  print_result ~correct
    ~attempted:(warm.W.attempted + p.W.attempted + pu.W.attempted)
    ~failed ~digest metrics;
  correct

let run_cmd args =
  let workload = ref "" and seed = ref 42 and seconds = ref 28.
  and trace = ref 0 and smoke = ref false in
  ignore
    (parse_args "run" args
       [
         ("--workload", Arg.Set_string workload, "W workload name");
         ("--seed", Arg.Set_int seed, "S input seed (default 42)");
         ( "--seconds",
           Arg.Set_float seconds,
           "T seconds to measure, at least 3 passes (default 28)" );
         ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
         ("--smoke", Arg.Set smoke, " tiny sizes, for a quick self-check");
       ]);
  let w = find_workload ~smoke:!smoke !workload in
  let correct =
    match !trace with
    | 0 -> run_untraced w ~seed:!seed ~seconds:!seconds
    | 1 -> run_traced w ~seed:!seed
    | t -> die "--trace must be 0 or 1, not %d" t
  in
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* The benchmark definition, read from BENCHMARK.json by [repeat],
   [compare] and [smoke]. *)

let bench_file = "BENCHMARK.json"

type metric_spec = {
  m_name : string;
  m_unit : string;
  lower_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type bench = {
  workloads : string list;
  run_seconds : float;
  end_to_end : metric_spec list;
  per_layer : metric_spec list;
}

let load_bench () =
  let b = Json.of_file bench_file in
  let specs key =
    List.map
      (fun m ->
        {
          m_name = Json.to_str (Json.get "name" m);
          m_unit = Json.to_str (Json.get "unit" m);
          lower_better = Json.to_str (Json.get "better" m) = "lower";
          bound = Option.map Json.to_num (Json.member "bound" m);
        })
      (Json.to_list (Json.get key b))
  in
  {
    workloads =
      List.map
        (fun w -> Json.to_str (Json.get "name" w))
        (Json.to_list (Json.get "workloads" b));
    run_seconds = Json.to_num (Json.get "run_seconds" b);
    end_to_end = specs "end_to_end";
    per_layer = specs "per_layer";
  }

(* Which end-to-end metrics each per-layer metric should move, and on
   which workloads: (per-layer metrics, end-to-end metrics, workloads).
   BENCHMARK.json's per-layer entries hold only name, unit and direction,
   so the map lives here. [smoke] checks that it names exactly the
   per-layer metrics of BENCHMARK.json and only its end-to-end metrics and
   workloads, and that every metric reads non-zero on the workloads it
   should move. The bench.* row moves nothing: it is the benchmark's own
   cost. *)

let solve = [ "solve-paper"; "solve-large" ]
let every = solve @ [ "service-churn"; "dataplane-conns" ]
let speed = [ "throughput_per_s"; "latency_p50_ms"; "latency_p90_ms" ]

let layer_map =
  [
    ([ "topo.generate_ms" ], [ "setup_s" ], every);
    ([ "core.schedule_ms" ], speed, solve);
    ( [ "core.schedule_calls"; "core.rounds"; "core.candidate_evals";
        "core.feasibility_checks" ],
      speed,
      solve @ [ "service-churn" ] );
    ([ "dynflow.evaluate_ms"; "dynflow.full_evals" ], speed, solve);
    ( [ "dynflow.cache_hits"; "dynflow.cohorts_retraced";
        "dynflow.retrace_ratio" ],
      speed,
      [ "solve-paper"; "service-churn" ] );
    ([ "dynflow.retargets" ], speed, [ "service-churn" ]);
    ([ "service.create_ms" ], [ "setup_s" ], [ "service-churn" ]);
    ( [ "service.submit_ms"; "service.process_ms"; "service.txn_mean_ms";
        "service.wait_mean_ms"; "service.batches";
        "service.admitted_per_batch"; "service.footprint_reuse";
        "service.queue_depth"; "service.serialized_ratio";
        "service.denied_ratio" ],
      speed,
      [ "service-churn" ] );
    ([ "sim.compile_ms" ], [ "setup_s" ], [ "dataplane-conns" ]);
    ( [ "sim.run_ms"; "sim.ns_per_event"; "sim.events"; "sim.queue_high_water";
        "sim.queue_resizes"; "sim.flow_lookups"; "fiber.spawns";
        "fiber.context_switches"; "fiber.switches_per_event";
        "fiber.peak_live"; "fiber.lifecycle_ms" ],
      speed,
      [ "dataplane-conns" ] );
    ( [ "exec.build_ms"; "exec.launch_ms"; "exec.finish_ms";
        "exec.rule_installs" ],
      [ "latency_p50_ms"; "latency_p90_ms" ],
      [ "dataplane-conns" ] );
    ([ "exec.update_span_ms" ], [ "makespan_mean" ], [ "dataplane-conns" ]);
    ( [ "ocaml.minor_words_per_op"; "ocaml.major_collections" ],
      [ "throughput_per_s"; "peak_heap_mb" ],
      every );
    ( [ "bench.wall_ms"; "bench.generate_ms"; "bench.check_ms";
        "bench.unaccounted_ms"; "bench.trace_overhead_pct" ],
      [],
      [] );
  ]

(* ------------------------------------------------------------------ *)
(* Child runs: [repeat] and [smoke] start one process per run and read
   back its result line and outputs digest. *)

type child = { code : int; line : string; result : Json.t; digest : string }

let child_run ~exe ~smoke ~workload ~seed ~seconds ~trace =
  let args =
    [ exe; "run"; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; string_of_float seconds; "--trace"; string_of_int trace ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> acc
  in
  let rev_lines = lines [] in
  let status = Unix.close_process_in ic in
  let digest =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "outputs_digest"; d ] -> Some d
        | _ -> None)
      rev_lines
  in
  match (status, rev_lines) with
  | Unix.WEXITED code, line :: _ -> (
      match Json.parse line with
      | result ->
          Ok { code; line; result; digest = Option.value ~default:"" digest }
      | exception Json.Error e -> Error ("unparsable result line: " ^ e))
  | Unix.WEXITED code, [] -> Error (Printf.sprintf "exit %d, no output" code)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "killed by signal %d" s)

(* [repeat] runs every workload of BENCHMARK.json [runs] times for its
   [run_seconds] with each given build: side A is the base (the parent
   commit), side B the change. The two sides run pair by pair, the same
   workload and seed back to back, and the side that goes first
   alternates from one pair to the next, so a slow phase of the host
   falls on both sides alike. Rounds alternate workloads: round r of
   every workload comes before round r+1 of any. Given one build, it
   measures that build's own spread. *)
let repeat_cmd args =
  let runs = ref 10 and out = ref "" and seed = ref 42 and distinct = ref false in
  let exes =
    parse_args "repeat" args
      [
        ("--runs", Arg.Set_int runs, "N rounds per workload (default 10)");
        ("--out", Arg.Set_string out, "FILE where to write the runs (JSON)");
        ("--seed", Arg.Set_int seed, "S seed of the first round (default 42)");
        ("--distinct-seeds", Arg.Set distinct, " round r uses seed S + r");
      ]
  in
  if !out = "" then die "repeat needs --out FILE";
  let sides =
    match exes with
    | [ a ] -> [ ("A", a) ]
    | [ a; b ] -> [ ("A", a); ("B", b) ]
    | _ -> die "repeat takes one or two perf.exe builds: BASE [CHANGE]"
  in
  let b = load_bench () in
  let records = ref [] and ok = ref true and pair = ref 0 in
  for r = 0 to !runs - 1 do
    List.iter
      (fun workload ->
        let seed = if !distinct then !seed + r else !seed in
        let order = if !pair mod 2 = 0 then sides else List.rev sides in
        incr pair;
        List.iter
          (fun (side, exe) ->
            match
              child_run ~exe ~smoke:false ~workload ~seed
                ~seconds:b.run_seconds ~trace:0
            with
            | Ok c ->
                if c.code <> 0 then ok := false;
                Printf.eprintf "round %d/%d %s %s seed %d: exit %d digest %s\n%!"
                  (r + 1) !runs side workload seed c.code c.digest;
                records :=
                  Printf.sprintf
                    "  {\"side\": \"%s\", \"round\": %d, \"workload\": \"%s\", \
                     \"seed\": %d, \"outputs_digest\": \"%s\", \"result\": %s}"
                    side r workload seed c.digest c.line
                  :: !records
            | Error e ->
                ok := false;
                Printf.eprintf "round %d/%d %s %s seed %d: %s\n%!" (r + 1) !runs
                  side workload seed e)
          order)
      b.workloads
  done;
  let oc = open_out !out in
  Printf.fprintf oc "{\"runs\": [\n%s\n]}\n"
    (String.concat ",\n" (List.rev !records));
  close_out oc;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare: per (workload, metric), each side's median, quartiles and
   spread, the ratio of medians with its base, how many pairs side B
   wins, and a verdict against the metric's BENCHMARK.json bound. *)

type run = {
  side : string;
  round : int;
  r_workload : string;
  r_digest : string;
  r_failed : int;
  r_metrics : Json.t;
}

let load_runs path =
  List.map
    (fun r ->
      let result = Json.get "result" r in
      {
        side = Json.to_str (Json.get "side" r);
        round = int_of_float (Json.to_num (Json.get "round" r));
        r_workload = Json.to_str (Json.get "workload" r);
        r_digest = Json.to_str (Json.get "outputs_digest" r);
        r_failed = int_of_float (Json.to_num (Json.get "failed" result));
        r_metrics = Json.get "metrics" result;
      })
    (Json.to_list (Json.get "runs" (Json.of_file path)))

(* (round, value) of one metric on one side and workload. *)
let values runs side workload metric =
  List.filter_map
    (fun r ->
      if r.side <> side || r.r_workload <> workload then None
      else
        Option.map
          (fun m -> (r.round, Json.to_num (Json.get "value" m)))
          (Json.member metric r.r_metrics))
    runs

let compare_cmd args =
  let def = load_bench () in
  let runs =
    match parse_args "compare" args [] with
    | [ file ] -> load_runs file
    | _ -> die "compare takes one repeat file"
  in
  let paired = List.exists (fun r -> r.side = "B") runs in
  let spread (q1, m, q3) = ratio (q3 -. q1) m in
  let show ((q1, m, q3) as q) =
    Printf.sprintf "%.4g [%.4g, %.4g] %.1f%%" m q1 q3 (100. *. spread q)
  in
  let row = Printf.printf "%-18s %-6s %-36s %-36s %-16s %-6s %s\n" in
  List.iter
    (fun workload ->
      let side_summary side =
        let mine =
          List.filter (fun r -> r.side = side && r.r_workload = workload) runs
        in
        Printf.sprintf "%s: %d runs, %d failed, digests %s" side
          (List.length mine)
          (List.fold_left (fun acc r -> acc + r.r_failed) 0 mine)
          (String.concat ","
             (List.sort_uniq compare (List.map (fun r -> r.r_digest) mine)))
      in
      Printf.printf "\n== %s\n   %s\n" workload (side_summary "A");
      if paired then Printf.printf "   %s\n" (side_summary "B");
      row "metric" "unit" "A median [q1, q3] spread" "B median [q1, q3] spread"
        "B/A (base A)" "B wins" "verdict";
      List.iter
        (fun spec ->
          let bound = Option.value ~default:0. spec.bound in
          match values runs "A" workload spec.m_name with
          | [] -> ()
          | a ->
              let va = List.map snd a in
              let qa = quartiles va in
              if not paired then
                row spec.m_name spec.m_unit (show qa) "" "" ""
                  (if spread qa > bound then "unresolved: spread > bound"
                   else if spread qa > bound /. 3. then "spread > bound/3"
                   else "steady")
              else
                let b = values runs "B" workload spec.m_name in
                let vb = List.map snd b in
                let qb = quartiles vb in
                let (q1a, ma, q3a), (_, mb, _) = (qa, qb) in
                let better x y = if spec.lower_better then x < y else x > y in
                let pairs =
                  List.filter_map
                    (fun (round, x) ->
                      Option.map (fun y -> (x, y)) (List.assoc_opt round b))
                    a
                in
                let wins =
                  List.length (List.filter (fun (x, y) -> better y x) pairs)
                in
                let worse_by =
                  if spec.lower_better then ratio mb ma -. 1.
                  else 1. -. ratio mb ma
                in
                let all_better =
                  List.for_all (fun y -> List.for_all (better y) va) vb
                in
                let verdict =
                  if (spread qa > bound || spread qb > bound) && not all_better
                  then "unresolved: spread > bound"
                  else if worse_by > bound then "REGRESSION beyond bound"
                  else if
                    List.length pairs >= 10
                    && 10 * wins >= 9 * List.length pairs
                    && Float.abs (mb -. ma) > q3a -. q1a
                  then "gain"
                  else "within bound"
                in
                row spec.m_name spec.m_unit (show qa) (show qb)
                  (Printf.sprintf "%.3f (%.4g)" (ratio mb ma) ma)
                  (Printf.sprintf "%d/%d" wins (List.length pairs))
                  verdict)
        def.end_to_end)
    def.workloads

(* ------------------------------------------------------------------ *)
(* smoke: every workload at smoke size, both trace modes, in child
   processes. Every metric BENCHMARK.json names must be emitted with its
   unit, the correctness gate must pass, and [layer_map] must agree with
   BENCHMARK.json and with what the traced runs measure. *)

let smoke_cmd args =
  ignore (parse_args "smoke" args []);
  let def = load_bench () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names = List.map (fun w -> w.W.name) (W.all ~smoke:true) in
  if List.sort compare names <> List.sort compare def.workloads then
    problem "BENCHMARK.json workloads [%s] <> perf.exe workloads [%s]"
      (String.concat "," def.workloads) (String.concat "," names);
  let mapped = List.concat_map (fun (ms, _, _) -> ms) layer_map in
  let declared = List.map (fun s -> s.m_name) def.per_layer in
  if List.sort compare mapped <> List.sort compare declared then
    problem "the layer map's metrics differ from BENCHMARK.json's per_layer";
  List.iter
    (fun (_, moves, workloads) ->
      List.iter
        (fun m ->
          if not (List.exists (fun s -> s.m_name = m) def.end_to_end) then
            problem "layer map: %s is not an end-to-end metric" m)
        moves;
      List.iter
        (fun w ->
          if not (List.mem w def.workloads) then
            problem "layer map: %s is not a workload" w)
        workloads)
    layer_map;
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, specs) ->
          let where = Printf.sprintf "%s --trace %d" workload trace in
          match
            child_run ~exe:Sys.executable_name ~smoke:true ~workload ~seed:42
              ~seconds:0. ~trace
          with
          | Error e -> problem "%s: %s" where e
          | Ok c ->
              let correct = Json.member "correct" c.result in
              if c.code <> 0 || correct <> Some (Json.Bool true) then
                problem "%s: exit %d, correctness gate failed" where c.code;
              let emitted =
                match Json.member "metrics" c.result with
                | Some (Json.Obj l) -> l
                | _ -> []
              in
              List.iter
                (fun s ->
                  match List.assoc_opt s.m_name emitted with
                  | None -> problem "%s: metric %s missing" where s.m_name
                  | Some m ->
                      if Json.member "unit" m <> Some (Json.Str s.m_unit) then
                        problem "%s: metric %s has the wrong unit" where
                          s.m_name;
                      let moves_here =
                        List.exists
                          (fun (ms, _, ws) ->
                            List.mem s.m_name ms && List.mem workload ws)
                          layer_map
                      in
                      if
                        (trace = 0 || moves_here)
                        && Json.member "value" m = Some (Json.Num 0.)
                      then problem "%s: metric %s reads 0" where s.m_name)
                specs;
              List.iter
                (fun (k, _) ->
                  if not (List.exists (fun s -> s.m_name = k) specs) then
                    problem "%s: metric %s is not in BENCHMARK.json" where k)
                emitted)
        [ (0, def.end_to_end); (1, def.per_layer) ])
    def.workloads;
  match List.rev !problems with
  | [] ->
      Printf.printf "smoke: %d workloads x 2 trace modes ok\n"
        (List.length def.workloads)
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: " ^ p)) ps;
      exit 1

let () =
  try
    match Array.to_list Sys.argv with
    | _ :: "run" :: args -> run_cmd args
    | _ :: "repeat" :: args -> repeat_cmd args
    | _ :: "compare" :: args -> compare_cmd args
    | _ :: "smoke" :: args -> smoke_cmd args
    | _ -> die "usage: perf.exe (run | repeat | compare | smoke) [options]"
  with
  | Json.Error e -> die "malformed JSON input: %s" e
  | Sys_error e -> die "%s" e
