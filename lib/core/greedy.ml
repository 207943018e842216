open Chronus_graph
open Chronus_flow
module Obs = Chronus_obs.Obs

(* Observability (see OBSERVABILITY.md): candidate evaluations count
   every safety check of a (switch, step) pair; feasibility checks count
   full dynamic-flow oracle evaluations, the expensive subset. Both only
   observe — the scheduler's decisions never read them. *)
let c_rounds = Obs.Counter.v "greedy.rounds"
let c_cands = Obs.Counter.v "greedy.candidate_evals"
let c_oracle = Obs.Counter.v "greedy.feasibility_checks"
let c_redos = Obs.Counter.v "greedy.analytic_redos"
let s_schedule = Obs.Span.v "greedy.schedule"
let s_round = Obs.Span.v "greedy.round"

type mode = Exact | Analytic

type outcome =
  | Scheduled of Schedule.t
  | Infeasible of { partial : Schedule.t; remaining : Graph.node list }

type stats = { steps_examined : int; candidates_checked : int; waits : int }

let downstream_first inst =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) inst.Instance.p_fin;
  let pos v = Option.value ~default:(-1) (Hashtbl.find_opt pos v) in
  fun switches ->
    List.sort
      (fun a b -> match compare (pos b) (pos a) with 0 -> compare a b | c -> c)
      switches

let run_scheduler ~mode ~relax_congestion ?oracle inst =
  Obs.Span.with_h s_schedule @@ fun () ->
  let drain = Drain.make inst in
  let remaining = Hashtbl.create 16 in
  List.iter
    (fun u -> Hashtbl.replace remaining u.Instance.switch ())
    (Instance.updates inst);
  let sched = ref Schedule.empty in
  let time = ref 0 in
  (* In Exact mode every feasibility question goes through one incremental
     oracle session whose base tracks [!sched]: candidate checks are probes
     and commits promote the already-probed state, so consecutive checks
     re-trace only the cohorts the candidate flip can affect. The final
     [Scheduled !sched] is thereby validated for free — the checker's base
     report is the oracle's verdict on exactly that schedule, and every
     commit required it to be violation-free. Analytic mode never pays for
     the session (its decisions are closed-form). *)
  let checker =
    match mode with
    | Exact -> (
        match oracle with
        | Some ck ->
            (* An externally pooled session (the update service's
               cross-batch reuse): normalise it to the empty base so the
               run starts from the same state a fresh [create] would. *)
            if not (Oracle.Checker.instance ck == inst) then
              invalid_arg
                "Greedy.schedule: ?oracle session targets a different instance";
            if not (Schedule.is_empty (Oracle.Checker.base ck)) then
              Oracle.Checker.retarget ck inst;
            Some ck
        | None -> Some (Oracle.Checker.create inst Schedule.empty))
    | Analytic -> None
  in
  (* Analytic mode traces cohorts for its checks and its stream walks;
     one tracer serves the whole run (Exact mode never builds it). *)
  let tracer = lazy (Oracle.tracer inst) in
  (* The final-path positions behind the forced-commit order, tabled once
     per run rather than at every forced commit. *)
  let downstream_first = downstream_first inst in
  let steps = ref 0 and cands = ref 0 and waits = ref 0 in
  (* The sorted remaining set is consulted on every fixpoint round;
     re-sorting the hashtable fold each time made the scheduler quadratic
     in the update count. Cache it and edit the cache on commit. *)
  let remaining_cache = ref None in
  let remaining_list () =
    match !remaining_cache with
    | Some l -> l
    | None ->
        let l =
          Hashtbl.fold (fun v () acc -> v :: acc) remaining []
          |> List.sort compare
        in
        remaining_cache := Some l;
        l
  in
  let commit_remove v =
    Hashtbl.remove remaining v;
    remaining_cache :=
      Option.map (List.filter (fun x -> x <> v)) !remaining_cache
  in
  (* The redirected streams of the already-committed flips, traced under
     the rules currently in force, maintained incrementally: a fresh walk
     is added at each commit, walks whose recorded route crosses a newly
     committed switch are retraced (their suffix would be stale), and
     walks whose feed has drained shed no traffic and are dropped. Feed
     horizons only shrink as commits accumulate, so refreshing them keeps
     the registry a sound over-approximation at all times. *)
  let walk_tbl : (Graph.node, Safety.stream_walk) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Analytic mode reads one drain view of the committed schedule: built
     on first use after each commit, shared by the candidate checks and
     the walk upkeep below. *)
  let committed_view = ref None in
  let committed () =
    match !committed_view with
    | Some d -> d
    | None ->
        let d = Drain.view drain !sched in
        committed_view := Some d;
        d
  in
  let trace_walk x =
    let feed = Drain.last_arrival (committed ()) x in
    if Horizon.at_or_after feed !time then begin
      let cohort = Oracle.trace_from (Lazy.force tracer) !sched x !time in
      Hashtbl.replace walk_tbl x
        (Safety.make_walk ~feed ~base:!time cohort.Oracle.visits)
    end
    else Hashtbl.remove walk_tbl x
  in
  let refresh_walks () =
    let dview = committed () in
    let origins = Hashtbl.fold (fun x _ acc -> x :: acc) walk_tbl [] in
    List.iter
      (fun x ->
        let feed = Drain.last_arrival dview x in
        if Horizon.before feed !time then Hashtbl.remove walk_tbl x
        else
          match Hashtbl.find_opt walk_tbl x with
          | Some w -> Hashtbl.replace walk_tbl x (Safety.with_feed feed w)
          | None -> ())
      origins
  in
  let walks_crossing v =
    Hashtbl.fold
      (fun x w acc -> if Safety.walk_crosses w v then x :: acc else acc)
      walk_tbl []
  in
  let note_commit v =
    List.iter trace_walk (walks_crossing v);
    if Instance.new_next inst v <> None then trace_walk v
  in
  let live_walks () =
    Hashtbl.fold (fun _ w acc -> w :: acc) walk_tbl []
  in
  (* In Exact mode the oracle is the sole decider; in Analytic mode the
     analytic verdict is. *)
  let check ~streams v =
    incr cands;
    Obs.Counter.incr c_cands;
    match checker with
    | Some ck ->
        Obs.Counter.incr c_oracle;
        Safety.of_report (Oracle.Checker.probe ck v !time)
    | None ->
        Safety.analytic ~streams ~tracer:(Lazy.force tracer) inst (committed ())
          !sched ~time:!time v
  in
  let commit_flip v =
    sched := Schedule.add v !time !sched;
    committed_view := None;
    (* The commit promotes the candidate's own probe (memoised) into the
       checker's new base — no extra oracle work. *)
    Option.iter (fun ck -> ignore (Oracle.Checker.commit ck v !time)) checker;
    commit_remove v
  in
  (* Best-effort mode ([relax_congestion], backing {!Fallback}): stay
     congestion-free for as long as possible; only once provably stuck,
     force the flip that overloads the fewest time-extended links, still
     refusing loops and blackholes. *)
  let forced_commit () =
    (* Analytic mode has no long-lived session; a stuck step assesses a
       dozen same-base candidates, which is exactly the probe pattern, so
       open a throwaway session on the current partial schedule. *)
    let ck =
      match checker with
      | Some ck -> ck
      | None -> Oracle.Checker.create inst !sched
    in
    let assess v =
      Obs.Counter.incr c_oracle;
      let report = Oracle.Checker.probe ck v !time in
      if
        List.for_all
          (function Oracle.Congestion _ -> true | _ -> false)
          report.Oracle.violations
      then Some (List.length report.Oracle.congested, v)
      else None
    in
    (* Downstream final-path switches first — flipping them cannot strand
       traffic — and only a bounded sample is assessed: the oracle call per
       candidate is what makes unbridled best-effort scheduling quadratic. *)
    let ordered = downstream_first (remaining_list ()) in
    let rec shortlist k = function
      | [] -> []
      | _ when k = 0 -> []
      | v :: rest -> v :: shortlist (k - 1) rest
    in
    let best =
      List.fold_left
        (fun acc v ->
          match (assess v, acc) with
          | Some cand, Some best -> Some (min cand best)
          | Some cand, None -> Some cand
          | None, _ -> acc)
        None
        (shortlist 12 ordered)
    in
    match best with
    | Some (_, v) ->
        commit_flip v;
        true
    | None -> false
  in
  let try_candidates candidates =
    (match mode with Exact -> () | Analytic -> refresh_walks ());
    let streams = ref (Safety.view_of_walks (live_walks ())) in
    List.fold_left
      (fun acc v ->
        if
          Hashtbl.mem remaining v
          && Safety.is_safe (check ~streams:!streams v)
        then begin
          commit_flip v;
          (match mode with
          | Exact -> ()
          | Analytic ->
              note_commit v;
              streams := Safety.view_of_walks (live_walks ()));
          true
        end
        else acc)
      false candidates
  in
  (* Commit every safe chain head at the current step, re-deriving the
     dependency relation after each round of commits until it stabilises:
     this is how v_1 and v_4 end up sharing step t_2 in the paper's
     walkthrough. When no head commits, sweep the full remaining set once —
     a dependency can point at a switch that is itself drain-gated while a
     non-head is perfectly safe (this matters mostly under
     [relax_congestion]). *)
  let rec heads_fixpoint progressed =
    let rem = remaining_list () in
    let dep = Dependency.at inst drain !sched ~remaining:rem ~time:!time in
    if try_candidates (Dependency.heads dep) then heads_fixpoint true
    else progressed
  in
  let commit_fixpoint () =
    let progressed = heads_fixpoint false in
    if progressed then true
    else if try_candidates (remaining_list ()) then begin
      ignore (heads_fixpoint true);
      true
    end
    else false
  in
  let result =
    let rec run () =
      if Hashtbl.length remaining = 0 then Scheduled !sched
      else begin
        incr steps;
        Obs.Counter.incr c_rounds;
        let progressed = Obs.Span.with_h s_round commit_fixpoint in
        if Hashtbl.length remaining = 0 then Scheduled !sched
        else begin
          if not progressed then incr waits;
          if progressed then begin
            time := !time + 1;
            run ()
          end
          else begin
            (* Nothing changed at this step. The network state only evolves
               when a drain horizon passes, so jump to the next such event;
               if none lies ahead the state is static forever and the
               remaining switches can never flip (Theorem 2). *)
            let dview = Drain.view drain !sched in
            let horizon_values =
              List.fold_left
                (fun acc w ->
                  match Safety.walk_feed w with
                  | Horizon.Until x ->
                      (* The walk keeps feeding each visited switch until
                         the feed plus that switch's route offset. *)
                      let base = Safety.walk_base w in
                      List.fold_left
                        (fun acc (_, t_y) -> (x + (t_y - base)) :: acc)
                        (x :: acc) (Safety.walk_visits w)
                  | _ -> acc)
                (Drain.expiries dview)
                (match mode with
                | Exact -> []
                | Analytic ->
                    refresh_walks ();
                    live_walks ())
            in
            let events =
              List.filter_map
                (fun x -> if x + 1 > !time then Some (x + 1) else None)
                horizon_values
              |> List.sort_uniq compare
            in
            match events with
            | [] ->
                if relax_congestion && forced_commit () then begin
                  time := !time + 1;
                  run ()
                end
                else
                  Infeasible
                    { partial = !sched; remaining = remaining_list () }
            | next :: _ ->
                time := next;
                run ()
          end
        end
      end
    in
    run ()
  in
  ( result,
    {
      steps_examined = !steps;
      candidates_checked = !cands;
      waits = !waits;
    } )

let rec schedule_with_stats ?(mode = Exact) ?(relax_congestion = false) ?oracle
    inst =
  let result, stats = run_scheduler ~mode ~relax_congestion ?oracle inst in
  let validated sched =
    Obs.Counter.incr c_oracle;
    Oracle.is_consistent inst sched
  in
  match (result, mode) with
  | Scheduled sched, Analytic
    when (not relax_congestion) && not (validated sched) ->
      (* The analytic checks approximate in-flight traffic on routes that
         flipped mid-journey; when the final validation catches such a
         miss, the oracle-gated engine redoes the work. This happens on
         about half of the random reroutes at 10-20 switches, and a redo
         costs far more than the analytic pass. *)
      Obs.Counter.incr c_redos;
      let exact_result, exact_stats =
        schedule_with_stats ~mode:Exact ~relax_congestion ?oracle inst
      in
      ( exact_result,
        {
          steps_examined = stats.steps_examined + exact_stats.steps_examined;
          candidates_checked =
            stats.candidates_checked + exact_stats.candidates_checked;
          waits = stats.waits + exact_stats.waits;
        } )
  | _ -> (result, stats)

let schedule ?mode ?relax_congestion ?oracle inst =
  fst (schedule_with_stats ?mode ?relax_congestion ?oracle inst)

let makespan = function
  | Scheduled s -> Some (Schedule.makespan s)
  | Infeasible _ -> None
