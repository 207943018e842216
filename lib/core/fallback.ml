open Chronus_flow

type result = { schedule : Schedule.t; clean : bool }

let complete inst partial remaining =
  let drain = Drain.make inst in
  let dview = Drain.view drain partial in
  let horizon_max = List.fold_left max 0 (Drain.expiries dview) in
  let start = max (Schedule.max_time partial + 1) (horizon_max + 1) in
  (* Extra headroom so that deletes land after any conceivable drain. *)
  let start = start + Instance.init_delay inst + 1 in
  (* Place the leftovers downstream first, so rules flip before the
     traffic that needs them can arrive, through one incremental oracle
     session on the partial base: each placement is probed at its spaced
     slot and pushed later only if it would strand traffic. The headroom
     above makes that bump unreachable in practice (deletes land after
     any conceivable drain), so this normally costs [remaining]
     probe/commit pairs — congestion is accepted here, loops and
     blackholes never are. *)
  let ck = Oracle.Checker.create inst partial in
  let flow_broken report =
    List.exists
      (function
        | Oracle.Loop _ | Oracle.Blackhole _ -> true
        | Oracle.Congestion _ -> false)
      report.Oracle.violations
  in
  let place (s, t) v =
    (* Bump only flips that *introduce* a loop or blackhole over a sound
       base, and give up after a bounded number of slots (a delete whose
       old rule the residual steady route still needs is broken at every
       slot): placement must stay total and deterministic. *)
    let base_broken = flow_broken (Oracle.Checker.base_report ck) in
    let rec at t budget =
      if
        budget > 0 && (not base_broken)
        && flow_broken (Oracle.Checker.probe ck v t)
      then at (t + 1) (budget - 1)
      else begin
        ignore (Oracle.Checker.commit ck v t);
        (Schedule.add v t s, t + 1)
      end
    in
    at t 64
  in
  fst
    (List.fold_left place (partial, start)
       (Greedy.downstream_first inst remaining))

let schedule ?mode inst =
  match Greedy.schedule ?mode inst with
  | Greedy.Scheduled s -> { schedule = s; clean = true }
  | Greedy.Infeasible _ -> (
      (* Re-run with capacity constraints relaxed: congestion is now
         accepted, loops and blackholes still are not. *)
      match Greedy.schedule ?mode ~relax_congestion:true inst with
      | Greedy.Scheduled s -> { schedule = s; clean = false }
      | Greedy.Infeasible { partial; remaining } ->
          { schedule = complete inst partial remaining; clean = false })
