(* The chronus command-line tool: schedule one update instance, inspect
   the algorithms' intermediate structures, or regenerate any table/figure
   of the paper's evaluation. *)

open Cmdliner
open Chronus_flow
open Chronus_core
module E = Chronus_experiments

let scale_arg =
  let doc = "Experiment scale preset: tiny, quick or paper." in
  Arg.(value & opt string "quick" & info [ "scale" ] ~docv:"PRESET" ~doc)

let metrics_arg =
  let doc =
    "After each figure, print the per-label observability table (counters, \
     gauges and span timers accumulated during the run — see \
     OBSERVABILITY.md for the label vocabulary)."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let jobs_arg =
  let doc =
    "Domains to fan experiment trials out over (default: $(b,CHRONUS_JOBS) \
     or the recommended domain count). Rows are identical at any value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let instance_of_generator ~gen ~n ~seed =
  let rng = Chronus_topo.Rng.make seed in
  let spec = Chronus_topo.Scenario.spec n in
  match gen with
  | "fig1" -> Chronus_topo.Scenario.fig1_example ()
  | "random-final" -> Chronus_topo.Scenario.random_final ~rng spec
  | "reversal" -> Chronus_topo.Scenario.segment_reversal ~rng spec
  | "shortcut" -> Chronus_topo.Scenario.shortcut ~rng spec
  | "random-pair" -> Chronus_topo.Scenario.random_pair ~rng spec
  | "mixed" -> Chronus_topo.Scenario.mixed ~rng spec
  | other ->
      invalid_arg
        (Printf.sprintf
           "unknown generator %S (fig1, random-final, reversal, shortcut, \
            random-pair, mixed)"
           other)

(* chronus schedule *)
let schedule_cmd =
  let gen =
    Arg.(
      value & opt string "fig1"
      & info [ "generator" ] ~docv:"GEN" ~doc:"Instance generator.")
  in
  let n =
    Arg.(
      value & opt int 10
      & info [ "switches" ] ~docv:"N" ~doc:"Number of switches.")
  in
  let run gen n seed =
    let inst = instance_of_generator ~gen ~n ~seed in
    Format.printf "%a@.@." Instance.pp inst;
    let drain = Drain.make inst in
    let dep =
      Dependency.at inst drain Schedule.empty
        ~remaining:(Instance.switches_to_update inst)
        ~time:0
    in
    Format.printf "dependency relations at t0: %a@.@." Dependency.pp dep;
    List.iter
      (fun c -> Format.printf "crossing: %a@." Tree.pp_crossing c)
      (Tree.crossings inst);
    (match Greedy.schedule ~mode:Greedy.Exact inst with
    | Greedy.Scheduled s ->
        Format.printf "@.schedule: %a@.update time |T| = %d steps@."
          Schedule.pp s (Schedule.makespan s);
        Format.printf "oracle: %a@." Oracle.pp_report (Oracle.evaluate inst s)
    | Greedy.Infeasible { remaining; _ } ->
        Format.printf
          "@.no congestion- and loop-free schedule exists (%d switches \
           unschedulable); best effort:@."
          (List.length remaining);
        let { Fallback.schedule; _ } = Fallback.schedule inst in
        Format.printf "schedule: %a@.oracle: %a@." Schedule.pp schedule
          Oracle.pp_report
          (Oracle.evaluate inst schedule));
    0
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Compute a Chronus timed update schedule.")
    Term.(const run $ gen $ n $ seed_arg)

(* chronus experiment *)
let experiment_cmd =
  let which =
    let keys = List.map (fun f -> f.E.Figures.key) E.Figures.all in
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:("One of: " ^ String.concat ", " (keys @ [ "all" ]) ^ "."))
  in
  let conns_arg =
    let doc =
      "Concurrent-session counts for the $(b,conns) experiment, e.g. \
       $(b,--conns 2000,10000). Default: the scale's session axis."
    in
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "conns" ] ~docv:"CONNS" ~doc)
  in
  let rates_arg =
    let doc =
      "Offered rates (requests per round) for the $(b,service) experiment, \
       e.g. $(b,--rates 1,16). Default: the scale's rate axis."
    in
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "rates" ] ~docv:"RATES" ~doc)
  in
  let topos_arg =
    let doc =
      "Topology cells for the $(b,scale) experiment, e.g. \
       $(b,--topos fat16,b4,wan32) ($(b,fatK) is a k-ary fat-tree, \
       $(b,wanN) an N-site WAN). Default: the scale's cell list."
    in
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "topos" ] ~docv:"TOPOS" ~doc)
  in
  let run which scale_name jobs metrics rates topos conns =
    let scale = E.Scale.parse scale_name in
    let topos = Option.map (List.map E.Figures.parse_topo) topos in
    let axes = { E.Figures.topos; rates; conns } in
    let jobs =
      match jobs with
      | Some j -> j
      | None -> Chronus_parallel.Pool.default_jobs ()
    in
    match E.Figures.select [ which ] with
    | Error msg ->
        prerr_endline msg;
        2
    | Ok figures ->
        let many = List.compare_length_with figures 1 > 0 in
        List.iter
          (fun f ->
            let out, snap = E.Figures.measure f ~jobs ~scale axes in
            out.E.Figures.print ();
            if metrics then E.Figures.print_metrics f snap;
            if many then print_newline ())
          figures;
        0
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a table or figure of the paper's evaluation.")
    Term.(
      const run $ which $ scale_arg $ jobs_arg $ metrics_arg $ rates_arg
      $ topos_arg $ conns_arg)

(* chronus demo *)
let demo_cmd =
  let faults_arg =
    let doc =
      "Fault-injection preset applied to every executor: $(b,none), \
       $(b,drift) (clock error only), $(b,lossy) (control-channel faults) \
       or $(b,chaos) (everything, including switch failures)."
    in
    Arg.(value & opt string "none" & info [ "faults" ] ~docv:"PRESET" ~doc)
  in
  let clock_error_arg =
    let doc =
      "Override the per-switch clock offset and per-flip jitter bounds to \
       this many milliseconds (composes with $(b,--faults))."
    in
    Arg.(value & opt int 0 & info [ "clock-error" ] ~docv:"MS" ~doc)
  in
  let run seed faults_name clock_error_ms =
    let module Faults = Chronus_faults.Faults in
    let faults =
      let base = Faults.of_preset faults_name in
      if clock_error_ms > 0 then
        Faults.with_clock_error (Chronus_sim.Sim_time.msec clock_error_ms) base
      else base
    in
    let inst = Chronus_topo.Scenario.fig1_example () in
    Format.printf
      "Running the paper's worked example (Figs. 1-3) on the simulator@.";
    Format.printf "%a, clock error %d ms@.@." Faults.pp faults clock_error_ms;
    let c = Chronus_exec.Timed_exec.run ~seed ~faults inst in
    let o = Chronus_exec.Order_exec.run ~seed ~faults inst in
    let violations (r : Chronus_exec.Exec_env.result) =
      let v = r.Chronus_exec.Exec_env.violations in
      v.Chronus_sim.Monitor.transient_loops
      + v.Chronus_sim.Monitor.blackholes
      + v.Chronus_sim.Monitor.overload_samples
    in
    Format.printf
      "Chronus: schedule %a, peak %.2f Mbit/s, loss %d bytes@." Schedule.pp
      c.Chronus_exec.Timed_exec.schedule
      c.Chronus_exec.Timed_exec.result.Chronus_exec.Exec_env.peak_mbps
      c.Chronus_exec.Timed_exec.result.Chronus_exec.Exec_env.loss_bytes;
    Format.printf
      "         path %a, %d retries, %d unacked, %d violations@."
      Chronus_exec.Timed_exec.pp_path c.Chronus_exec.Timed_exec.path
      c.Chronus_exec.Timed_exec.retries c.Chronus_exec.Timed_exec.unacked
      (violations c.Chronus_exec.Timed_exec.result);
    Format.printf "OR:      %d rounds, peak %.2f Mbit/s, loss %d bytes@."
      (List.length o.Chronus_exec.Order_exec.rounds)
      o.Chronus_exec.Order_exec.result.Chronus_exec.Exec_env.peak_mbps
      o.Chronus_exec.Order_exec.result.Chronus_exec.Exec_env.loss_bytes;
    Format.printf "         %d violations@."
      (violations o.Chronus_exec.Order_exec.result);
    0
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the worked example on the simulator.")
    Term.(const run $ seed_arg $ faults_arg $ clock_error_arg)

(* chronus render *)
let render_cmd =
  let gen =
    Arg.(
      value & opt string "fig1"
      & info [ "generator" ] ~docv:"GEN" ~doc:"Instance generator.")
  in
  let n =
    Arg.(
      value & opt int 10
      & info [ "switches" ] ~docv:"N" ~doc:"Number of switches.")
  in
  let out =
    Arg.(
      value & opt string "chronus"
      & info [ "out" ] ~docv:"PREFIX" ~doc:"Output file prefix.")
  in
  let run gen n seed out =
    let inst = instance_of_generator ~gen ~n ~seed in
    (* Fig. 1: the network with the solid initial and dashed final path. *)
    Chronus_graph.Dot.write_file ~name:"network"
      ~initial_path:inst.Instance.p_init ~final_path:inst.Instance.p_fin
      (out ^ "-network.dot") inst.Instance.graph;
    Printf.printf "wrote %s-network.dot\n" out;
    (* Fig. 2: the time-extended network with the flow of the computed
       schedule highlighted. *)
    let sched =
      match Greedy.schedule inst with
      | Greedy.Scheduled s -> s
      | Greedy.Infeasible _ -> (Fallback.schedule inst).Fallback.schedule
    in
    let te = Time_extended.of_instance inst sched in
    let highlight =
      List.map (fun (a, b, _) -> (a, b)) (Time_extended.flow_links te inst sched)
    in
    let oc = open_out (out ^ "-time-extended.dot") in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Time_extended.to_dot ~highlight te));
    Printf.printf "wrote %s-time-extended.dot (schedule %s)\n" out
      (Format.asprintf "%a" Schedule.pp sched);
    0
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:
         "Write Graphviz files: the network with both routes (Fig. 1) and \
          the time-extended network carrying the scheduled flow (Fig. 2).")
    Term.(const run $ gen $ n $ seed_arg $ out)

(* chronus ilp *)
let ilp_cmd =
  let run seed =
    let inst = instance_of_generator ~gen:"fig1" ~n:6 ~seed in
    print_string (Mutp.render_ilp inst);
    0
  in
  Cmd.v
    (Cmd.info "ilp"
       ~doc:"Print the MUTP integer program (3) for the worked example.")
    Term.(const run $ seed_arg)

let main =
  let doc = "Chronus: consistent data plane updates in timed SDNs" in
  Cmd.group
    (Cmd.info "chronus" ~version:"1.0.0" ~doc)
    [ schedule_cmd; experiment_cmd; render_cmd; demo_cmd; ilp_cmd ]

let () = exit (Cmd.eval' main)
