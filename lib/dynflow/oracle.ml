open Chronus_graph
module Obs = Chronus_obs.Obs

(* Observability (see OBSERVABILITY.md): the cache counters let the bench
   report prove the incremental engine is actually short-circuiting work.
   They only observe — no oracle decision ever reads them. *)
let c_hits = Obs.Counter.v "oracle.cache_hits"
let c_retraced = Obs.Counter.v "oracle.cohorts_retraced"
let c_full = Obs.Counter.v "oracle.full_evals"
let c_retargets = Obs.Counter.v "oracle.retargets"

(* All oracle keys are small ints (switch ids, time steps); monomorphic
   hashing avoids the polymorphic-hash walk on every hot-path lookup. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type outcome = Delivered | Looped of Graph.node | Dropped of Graph.node

type cohort = {
  injected : int;
  visits : (Graph.node * int) list;
  outcome : outcome;
}

type violation =
  | Congestion of {
      u : Graph.node;
      v : Graph.node;
      time : int;
      load : int;
      capacity : int;
    }
  | Loop of { switch : Graph.node; injected : int; time : int }
  | Blackhole of { switch : Graph.node; injected : int; time : int }

type report = {
  ok : bool;
  violations : violation list;
  congested : (Graph.node * Graph.node * int) list;
  peak_load : int;
  window : int * int;
}

(* Monomorphic stand-ins for polymorphic [compare] on the report types;
   both orders match the generic structural order (constructors in
   declaration order, fields in declaration order) so reports sorted here
   are indistinguishable from ones sorted with [compare]. *)
let compare_key3 (u1, v1, t1) (u2, v2, t2) =
  match Int.compare u1 u2 with
  | 0 -> ( match Int.compare v1 v2 with 0 -> Int.compare t1 t2 | c -> c)
  | c -> c

let compare_violation a b =
  match (a, b) with
  | ( Congestion { u = u1; v = v1; time = t1; load = l1; capacity = c1 },
      Congestion { u = u2; v = v2; time = t2; load = l2; capacity = c2 } ) -> (
      match compare_key3 (u1, v1, t1) (u2, v2, t2) with
      | 0 -> (
          match Int.compare l1 l2 with 0 -> Int.compare c1 c2 | c -> c)
      | c -> c)
  | Congestion _, _ -> -1
  | _, Congestion _ -> 1
  | ( Loop { switch = s1; injected = i1; time = t1 },
      Loop { switch = s2; injected = i2; time = t2 } )
  | ( Blackhole { switch = s1; injected = i1; time = t1 },
      Blackhole { switch = s2; injected = i2; time = t2 } ) ->
      compare_key3 (s1, i1, t1) (s2, i2, t2)
  | Loop _, Blackhole _ -> -1
  | Blackhole _, Loop _ -> 1

(* Time-extended link keys packed into one immediate int: 21 bits each for
   the endpoints and the (biased, so mildly negative steps fit) entry
   step. One packed key replaces the [(int * int * int)] tuple the load
   table used to allocate and polymorphically hash per entry. *)
let t_bias = 1 lsl 20

let field_mask = (1 lsl 21) - 1

let pack u v t =
  let tb = t + t_bias in
  assert (u land lnot field_mask = 0 && v land lnot field_mask = 0);
  assert (tb land lnot field_mask = 0);
  (u lsl 42) lor (v lsl 21) lor tb

let unpack key =
  ( (key lsr 42) land field_mask,
    (key lsr 21) land field_mask,
    (key land field_mask) - t_bias )

let rec last_visit = function
  | [] -> assert false
  | [ (w, t) ] -> (w, t)
  | _ :: rest -> last_visit rest

(* The violation time of a loop is the revisit time (the last entry of the
   visit list is the repeated switch); a blackhole happens where and when
   the cohort last arrived. *)
let cohort_violation c =
  match c.outcome with
  | Delivered -> None
  | Looped _ ->
      let w, t = last_visit c.visits in
      Some (Loop { switch = w; injected = c.injected; time = t })
  | Dropped v ->
      let _, t = last_visit c.visits in
      Some (Blackhole { switch = v; injected = c.injected; time = t })

(* The switches at which a cohort *consulted* a forwarding rule: every
   visit except the last for delivered and looped cohorts (the
   destination's rule is never read; the loop-closing re-entry is recorded
   but not consulted), every visit for dropped ones (the last consult is
   the one that found no rule). A cached trace stays valid under any
   schedule change that cannot alter one of these consults. *)
let consults c =
  match c.outcome with
  | Dropped _ -> c.visits
  | Delivered | Looped _ ->
      let rec drop_last = function
        | [] | [ _ ] -> []
        | x :: rest -> x :: drop_last rest
      in
      drop_last c.visits

(* Per-instance lookup context for the simulation hot paths, held as
   direct-address arrays over the (small, dense) switch ids: the old and
   new forwarding rules with the delay of the edge each rule follows,
   the old-path prefix delays, and per-trace scratch (a flip-time array
   mirroring the schedule under evaluation and a generation-stamped
   visited set). A trace hop thus costs a few array reads instead of a
   map lookup plus two hash lookups. The context is single-domain state:
   [set_flips]/[clear_flips] bracket every batch of traces. *)
type ctx = {
  nn : int;  (** node id bound: every switch id is < [nn] *)
  mutable src : int;
  mutable dst : int;
  a_old : int array;  (** old rule next hop; -1 = none *)
  a_new : int array;  (** new rule next hop; -1 = none *)
  a_old_dl : int array;  (** delay of v -> a_old.(v) *)
  a_new_dl : int array;  (** delay of v -> a_new.(v) *)
  a_prefix : int array;  (** old-path prefix delay; [min_int] = off-path *)
  caps : int Itbl.t;  (** packed (u, v) -> capacity, for the load scan *)
  mutable bg : Graph.node -> Graph.node -> int;
      (** steady cross-flow load per link, added in the capacity scan *)
  flip : int array;  (** scratch: flip time of the schedule being traced *)
  stamp : int array;  (** scratch: visited marks, valid when = [gen] *)
  mutable gen : int;
}

let pack2 u v = (u lsl 21) lor v

let no_background _ _ = 0

(* Point the rule, delay and prefix arrays at [inst]: reset them, then
   fill the entries of the path switches (the only ones that carry
   rules). The arrays are sized by the graph's node bound and the
   capacity table is keyed by its edges, so a context re-pointed at
   another instance over the *same* graph keeps both: O(nn + path
   length) instead of the O(nodes + edges) of [make_ctx], which is what
   makes pooling checker sessions across transactions worthwhile. *)
let retarget_ctx ctx ?background inst =
  let g = inst.Instance.graph in
  Array.fill ctx.a_old 0 ctx.nn (-1);
  Array.fill ctx.a_new 0 ctx.nn (-1);
  Array.fill ctx.a_old_dl 0 ctx.nn 0;
  Array.fill ctx.a_new_dl 0 ctx.nn 0;
  Array.fill ctx.a_prefix 0 ctx.nn min_int;
  List.iter
    (fun v ->
      (match Instance.old_next inst v with
      | Some w ->
          ctx.a_old.(v) <- w;
          ctx.a_old_dl.(v) <- Graph.delay g v w
      | None -> ());
      match Instance.new_next inst v with
      | Some w ->
          ctx.a_new.(v) <- w;
          ctx.a_new_dl.(v) <- Graph.delay g v w
      | None -> ())
    (inst.Instance.p_init @ inst.Instance.p_fin);
  let rec walk acc = function
    | [] | [ _ ] -> ()
    | u :: (v :: _ as rest) ->
        if ctx.a_prefix.(u) = min_int then ctx.a_prefix.(u) <- acc;
        let acc = acc + Graph.delay g u v in
        if ctx.a_prefix.(v) = min_int then ctx.a_prefix.(v) <- acc;
        walk acc rest
  in
  (match inst.Instance.p_init with
  | [ only ] -> ctx.a_prefix.(only) <- 0
  | p -> walk 0 p);
  ctx.src <- Instance.source inst;
  ctx.dst <- Instance.destination inst;
  match background with Some bg -> ctx.bg <- bg | None -> ()

(* A fresh context over [inst]. The capacity table is read only by the
   load scan of an evaluation, so a context that only traces cohorts
   ([tracer]) is built with an empty one instead of one entry per edge. *)
let alloc_ctx ?(background = no_background) ~caps inst =
  let g = inst.Instance.graph in
  let nn = 1 + List.fold_left max 0 (Graph.nodes g) in
  let ctx =
    {
      nn;
      src = 0;
      dst = 0;
      a_old = Array.make nn (-1);
      a_new = Array.make nn (-1);
      a_old_dl = Array.make nn 0;
      a_new_dl = Array.make nn 0;
      a_prefix = Array.make nn min_int;
      caps;
      bg = background;
      flip = Array.make nn max_int;
      stamp = Array.make nn 0;
      gen = 0;
    }
  in
  retarget_ctx ctx inst;
  ctx

let make_ctx ?background inst =
  let caps = Itbl.create 64 in
  List.iter
    (fun (u, v, e) -> Itbl.replace caps (pack2 u v) e.Graph.capacity)
    (Graph.edges inst.Instance.graph);
  alloc_ctx ?background ~caps inst

let edge_cap ctx u v = Itbl.find ctx.caps (pack2 u v)

(* Load the schedule's flip times into the context's scratch array (and
   restore the "never flips" sentinel afterwards). Every call to
   [trace_ctx]/[trace_sim]/[trace_window]/[compute_params] must run
   between a matching set/clear pair for the schedule being evaluated. *)
let set_flips ctx sched =
  Schedule.fold (fun v t () -> ctx.flip.(v) <- t) sched ()

let clear_flips ctx sched =
  Schedule.fold (fun v _ () -> ctx.flip.(v) <- max_int) sched ()

(* The one cohort walk. A cohort at switch [start] at step [tau] (its
   [injected] field) follows, at every switch [v] it reaches at step [t],
   the new rule iff [t >= flip.(v)], else the old one. [record] is called
   with [(u, v, entry_time)] for every link the cohort enters, including
   the entry on which a loop is detected (the flow is physically on that
   link when it closes the loop). *)
let trace_ctx ctx ~record start tau =
  ctx.gen <- ctx.gen + 1;
  let gen = ctx.gen in
  let dst = ctx.dst and flip = ctx.flip and stamp = ctx.stamp in
  let rec step v t visits =
    stamp.(v) <- gen;
    if v = dst then
      { injected = tau; visits = List.rev visits; outcome = Delivered }
    else begin
      let flipped = t >= flip.(v) in
      let w = if flipped then ctx.a_new.(v) else ctx.a_old.(v) in
      if w < 0 then
        { injected = tau; visits = List.rev visits; outcome = Dropped v }
      else begin
        record v w t;
        let t' =
          t + if flipped then ctx.a_new_dl.(v) else ctx.a_old_dl.(v)
        in
        if stamp.(w) = gen then
          {
            injected = tau;
            visits = List.rev ((w, t') :: visits);
            outcome = Looped w;
          }
        else step w t' ((w, t') :: visits)
      end
    end
  in
  step start tau [ (start, tau) ]

let no_record _ _ _ = ()

type tracer = ctx

let tracer inst = alloc_ctx ~caps:(Itbl.create 1) inst

let trace_from tr sched start time =
  set_flips tr sched;
  let c = trace_ctx tr ~record:no_record start time in
  clear_flips tr sched;
  c

(* Everything about a schedule's transition that is *not* a per-cohort
   trace: the simulated injection window, the closed-form pure/stable
   stream descriptions, and the representative's steady-state verdict.
   Cheap to recompute per probe (one route walk plus two schedule folds);
   the per-cohort traces, which dominate, are what the checker caches. *)
type params = {
  tau_min : int;
  tau_start : int;  (** first simulated cohort; pure stream before this *)
  stable_from : int;  (** first closed-form stable cohort *)
  s_off : int array;
      (** steady-route arrival offset per switch; [min_int] = off-route *)
  s_nxt : int array;  (** steady-route next hop per switch; -1 = none *)
  rep_viol : violation option;
      (** the far-future representative's loop/blackhole, if any *)
}

let compute_params inst ctx sched =
  let tmax = max 0 (Schedule.max_time sched) in
  let tau_min = -Instance.init_delay inst in
  (* A cohort injected at tau is pure iff tau + P_x < s_x for every
     scheduled old-path switch x. *)
  let tau_pure_max =
    Schedule.fold
      (fun x s_x acc ->
        let p = ctx.a_prefix.(x) in
        if p = min_int then acc else min acc (s_x - p - 1))
      sched max_int
  in
  let tau_start =
    if tau_pure_max = max_int then tmax + 1 else max tau_min (tau_pure_max + 1)
  in
  (* A cohort that meets every scheduled switch at or after its flip is
     *stable*: it follows the post-transition route, a time-shifted copy
     of every other stable cohort. One far-future representative provides
     the route — and detects a defective steady configuration — and the
     rest are accounted in closed form. *)
  let rep_tau = tmax + 1 + Instance.init_delay inst + Instance.fin_delay inst in
  let rep = trace_ctx ctx ~record:no_record ctx.src rep_tau in
  let s_off = Array.make ctx.nn min_int in
  let s_nxt = Array.make ctx.nn (-1) in
  let rec note_offsets = function
    | [] | [ _ ] -> ()
    | (u, t_u) :: (((v, _) :: _) as rest) ->
        if s_off.(u) = min_int then begin
          s_off.(u) <- t_u - rep_tau;
          s_nxt.(u) <- v
        end;
        note_offsets rest
  in
  note_offsets rep.visits;
  let tau_settled =
    Schedule.fold
      (fun x s_x acc ->
        let off = s_off.(x) in
        if off = min_int then acc else max acc (s_x - off))
      sched min_int
  in
  let stable_from = max tau_settled tau_start in
  { tau_min; tau_start; stable_from; s_off; s_nxt; rep_viol = cohort_violation rep }

(* One simulated transitional cohort, with its recorded link entries kept
   as packed keys so a cached trace can be replayed into a load table
   without re-walking the network. *)
type sim = {
  s_tau : int;
  s_cohort : cohort;
  s_viol : violation option;
  s_entries : int array;
}

let trace_sim ctx tau =
  let entries = ref [] in
  let count = ref 0 in
  let record u v t =
    entries := pack u v t :: !entries;
    incr count
  in
  let c = trace_ctx ctx ~record ctx.src tau in
  let arr = Array.make !count 0 in
  let rec fill i = function
    | [] -> ()
    | k :: rest ->
        arr.(i) <- k;
        fill (i - 1) rest
  in
  fill (!count - 1) !entries;
  { s_tau = tau; s_cohort = c; s_viol = cohort_violation c; s_entries = arr }

let trace_window ctx params =
  let sims = ref [] in
  for tau = params.tau_start to params.stable_from - 1 do
    sims := trace_sim ctx tau :: !sims
  done;
  !sims

(* Turn the window cohorts plus the closed-form streams into a report.
   Every field is order-canonical (sorted violation and congestion sets, a
   max, a window tuple), so the result is independent of both hash
   iteration order and the order of [sims] — which is what lets the
   incremental checker guarantee reports *identical* to a from-scratch
   evaluation. *)
let assemble ?(size = 256) inst ctx params sims =
  let demand = inst.Instance.demand in
  let { tau_start; stable_from; s_off; s_nxt; rep_viol; _ } = params in
  let loads = Itbl.create size in
  let flow_violations =
    ref (match rep_viol with None -> [] | Some v -> [ v ])
  in
  List.iter
    (fun s ->
      (match s.s_viol with
      | None -> ()
      | Some v -> flow_violations := v :: !flow_violations);
      Array.iter
        (fun key ->
          let current = Option.value ~default:0 (Itbl.find_opt loads key) in
          Itbl.replace loads key (current + demand))
        s.s_entries)
    sims;
  (* Does the pure steady stream enter link (u, v) at step t? Exactly the
     cohorts injected strictly before [tau_start] are accounted here; the
     rest are simulated, so no cohort is counted twice. *)
  let pure_entry u v t =
    ctx.a_old.(u) = v
    && ctx.a_prefix.(u) <> min_int
    && t - ctx.a_prefix.(u) < tau_start
  in
  (* Does the stable stream enter link (u, v) at step t? Exactly the
     cohorts injected at [stable_from] or later are accounted here. *)
  let stable_entry u v t = s_nxt.(u) = v && t - s_off.(u) >= stable_from in
  let extra_load u v t =
    (if pure_entry u v t then demand else 0)
    + if stable_entry u v t then demand else 0
  in
  (* The two closed-form streams can share a link over a window that no
     simulated cohort touches: on every link of the stable route that is
     also an old-path link, the stable head overlaps the pure tail for the
     steps where both deliver. Materialise those keys so the capacity scan
     sees them. *)
  for u = 0 to ctx.nn - 1 do
    let next = s_nxt.(u) in
    if next >= 0 && ctx.a_old.(u) = next && ctx.a_prefix.(u) <> min_int then
      for t = s_off.(u) + stable_from to ctx.a_prefix.(u) + tau_start - 1 do
        let key = pack u next t in
        if not (Itbl.mem loads key) then Itbl.replace loads key 0
      done
  done;
  let congested = ref [] in
  let peak = ref 0 in
  let congestion_violations = ref [] in
  Itbl.iter
    (fun key load ->
      let u, v, t = unpack key in
      (* Steady cross-flow load shares the link at every step the dynamic
         flow enters it; see the [?background] contract in the .mli. *)
      let load = load + extra_load u v t + ctx.bg u v in
      if load > !peak then peak := load;
      let capacity = edge_cap ctx u v in
      if load > capacity then begin
        congested := (u, v, t) :: !congested;
        congestion_violations :=
          Congestion { u; v; time = t; load; capacity }
          :: !congestion_violations
      end)
    loads;
  let violations =
    List.sort_uniq compare_violation
      (!congestion_violations @ !flow_violations)
  in
  {
    ok = (match violations with [] -> true | _ -> false);
    violations;
    congested = List.sort compare_key3 !congested;
    peak_load = !peak;
    window = (tau_start, stable_from);
  }

(* The from-scratch evaluation behind [evaluate] and [Checker.create]:
   the window cohorts of [sched] on a context pointed at [inst], and the
   report assembled from them. *)
let evaluate_on ctx inst sched =
  Obs.Counter.incr c_full;
  set_flips ctx sched;
  let params = compute_params inst ctx sched in
  let sims = trace_window ctx params in
  clear_flips ctx sched;
  (* A long window would otherwise grow the load table through every
     doubling. The table resizes only past two keys a bucket, so half the
     window's entry count never resizes and is no larger than growth
     would make it. Probes keep the small default, which suits their few
     retraced cohorts. *)
  let entries =
    List.fold_left (fun n s -> n + Array.length s.s_entries) 0 sims
  in
  (sims, assemble ~size:(entries / 2) inst ctx params sims)

let evaluate ?background inst sched =
  let _, report = evaluate_on (make_ctx ?background inst) inst sched in
  report

(* The exhaustive variant backing {!link_loads}: materialise every cohort
   from the steady-state window up to the point where transitional tails
   have passed, as consumers of the full load table (the time-extended
   views) expect. *)
let link_loads inst sched =
  let demand = inst.Instance.demand in
  let ctx = make_ctx inst in
  set_flips ctx sched;
  let params = compute_params inst ctx sched in
  let loads = Itbl.create 256 in
  let last_entry = ref min_int in
  let record u v t =
    let key = pack u v t in
    let current = Option.value ~default:0 (Itbl.find_opt loads key) in
    Itbl.replace loads key (current + demand);
    if t > !last_entry then last_entry := t
  in
  let run tau = ignore (trace_ctx ctx ~record ctx.src tau) in
  for tau = params.tau_min to params.stable_from - 1 do
    run tau
  done;
  let fin = max params.stable_from !last_entry in
  let tau = ref params.stable_from in
  while !tau <= fin do
    run !tau;
    incr tau
  done;
  clear_flips ctx sched;
  Itbl.fold (fun key load acc -> (unpack key, load) :: acc) loads []
  |> List.sort (fun (k1, _) (k2, _) -> compare_key3 k1 k2)

let is_consistent ?background inst sched =
  Schedule.covers inst sched && (evaluate ?background inst sched).ok

(* ------------------------------------------------------------------ *)
(* The incremental engine. A checker is a session over one instance: it
   holds a *base* schedule together with everything [evaluate] computed
   for it — the window cohorts, their packed link entries, the
   closed-form stream parameters — plus an index from each switch to the
   cohorts that consulted its rule. Probing [add v t base] then re-traces
   only the cohorts that can observe the flip: those that consulted [v]
   at arrival step >= t (their recorded route would change) and those
   newly inside the probed schedule's window. Everything else is replayed
   from cache into a fresh load table, which costs an array walk per
   cohort instead of a network walk.

   Cache-invalidation contract (the equivalence obligation): a cached
   trace for injection time tau is valid under [add v t base] iff the
   cohort never consulted [v]'s rule at an arrival step >= t. [v] is
   never in [base] (adding it would raise), so under the base it held the
   old rule at every step; the probe changes its rule exactly on steps
   >= t, and no other switch's rule changes. The consult index makes this
   test O(index entries of v). Every report field is order-canonical, so
   a probe's report is structurally identical to [evaluate] on the probed
   schedule — the differential property suite asserts exactly that. *)
module Checker = struct
  type probe_state = {
    p_sched : Schedule.t;
    p_sims : sim list;
    p_report : report;
  }

  (* Everything the session derives from its base schedule. It is
     replaced whole, so a [push] frame is just the previous value. *)
  type based = {
    base : Schedule.t;
    cache : sim Itbl.t;  (** injection time -> cached trace *)
    index : (int * int) list Itbl.t;
        (** switch -> [(injection time, consult step)] over the cache *)
    report : report;
  }

  type t = {
    mutable inst : Instance.t;
    ctx : ctx;
    mutable cur : based;
    mutable memo : (Graph.node * int * probe_state) option;
        (** the last single-flip probe, for the probe-then-commit and
            probe-then-push patterns of the greedy and the B&B *)
    mutable frames : based list;
  }

  let build_index sims =
    let index = Itbl.create 32 in
    List.iter
      (fun s ->
        List.iter
          (fun (u, t) ->
            let prior = Option.value ~default:[] (Itbl.find_opt index u) in
            Itbl.replace index u ((s.s_tau, t) :: prior))
          (consults s.s_cohort))
      sims;
    index

  let cache_of sims =
    let cache = Itbl.create 64 in
    List.iter (fun s -> Itbl.replace cache s.s_tau s) sims;
    cache

  let with_base base sims report =
    { base; cache = cache_of sims; index = build_index sims; report }

  let create ?background inst sched =
    let ctx = make_ctx ?background inst in
    let sims, report = evaluate_on ctx inst sched in
    { inst; ctx; cur = with_base sched sims report; memo = None; frames = [] }

  let base ck = ck.cur.base

  let base_report ck = ck.cur.report

  let no_frames ck what =
    match ck.frames with
    | [] -> ()
    | _ :: _ ->
        invalid_arg ("Oracle.Checker." ^ what ^ ": outstanding push frames")

  let instance ck = ck.inst

  (* Re-point the session at a new instance over the same graph, with the
     empty schedule as base. An empty base simulates *zero* window cohorts
     (the pure stream covers every injection before [tmax + 1 = 1] and the
     stable stream everything from [stable_from = 1]), so the whole
     operation costs one representative trace plus an O(nn) array reset —
     not a from-scratch evaluation, hence its own counter. *)
  let retarget ?background ck inst =
    if not (inst.Instance.graph == ck.inst.Instance.graph) then
      invalid_arg "Oracle.Checker.retarget: instance is over a different graph";
    no_frames ck "retarget";
    Obs.Counter.incr c_retargets;
    retarget_ctx ck.ctx ?background inst;
    ck.inst <- inst;
    let params = compute_params inst ck.ctx Schedule.empty in
    ck.cur <- with_base Schedule.empty [] (assemble inst ck.ctx params []);
    ck.memo <- None

  let compute_probe ck adds =
    let sched' =
      List.fold_left (fun s (v, t) -> Schedule.add v t s) ck.cur.base adds
    in
    set_flips ck.ctx sched';
    let params' = compute_params ck.inst ck.ctx sched' in
    let affected = Itbl.create 8 in
    List.iter
      (fun (v, t) ->
        match Itbl.find_opt ck.cur.index v with
        | None -> ()
        | Some l ->
            List.iter
              (fun (tau, at) -> if at >= t then Itbl.replace affected tau ())
              l)
      adds;
    let sims = ref [] in
    let hits = ref 0 and retraced = ref 0 in
    for tau = params'.tau_start to params'.stable_from - 1 do
      let cached =
        if Itbl.mem affected tau then None else Itbl.find_opt ck.cur.cache tau
      in
      match cached with
      | Some s ->
          incr hits;
          sims := s :: !sims
      | None ->
          incr retraced;
          sims := trace_sim ck.ctx tau :: !sims
    done;
    clear_flips ck.ctx sched';
    Obs.Counter.incr ~by:!hits c_hits;
    Obs.Counter.incr ~by:!retraced c_retraced;
    {
      p_sched = sched';
      p_sims = !sims;
      p_report = assemble ck.inst ck.ctx params' !sims;
    }

  let probe_list ck adds = (compute_probe ck adds).p_report

  let probe ck v t =
    match ck.memo with
    | Some (mv, mt, st) when mv = v && mt = t -> st.p_report
    | _ ->
        let st = compute_probe ck [ (v, t) ] in
        ck.memo <- Some (v, t, st);
        st.p_report

  (* Promote the probe of [(v, t)] into the new base. *)
  let advance ck v t =
    let st =
      match ck.memo with
      | Some (mv, mt, st) when mv = v && mt = t -> st
      | _ -> compute_probe ck [ (v, t) ]
    in
    ck.cur <- with_base st.p_sched st.p_sims st.p_report;
    ck.memo <- None;
    st.p_report

  let commit ck v t =
    no_frames ck "commit";
    advance ck v t

  let push ck v t =
    let saved = ck.cur in
    let report = advance ck v t in
    ck.frames <- saved :: ck.frames;
    report

  let pop ck =
    match ck.frames with
    | [] -> invalid_arg "Oracle.Checker.pop: no pushed frame"
    | saved :: rest ->
        ck.frames <- rest;
        ck.cur <- saved;
        ck.memo <- None
end

let pp_violation ppf = function
  | Congestion { u; v; time; load; capacity } ->
      Format.fprintf ppf "congestion on v%d -> v%d at t=%d (load %d > cap %d)"
        u v time load capacity
  | Loop { switch; injected; time } ->
      Format.fprintf ppf
        "loop through v%d at t=%d (cohort injected at t=%d)" switch time
        injected
  | Blackhole { switch; injected; time } ->
      Format.fprintf ppf
        "blackhole at v%d at t=%d (cohort injected at t=%d)" switch time
        injected

let pp_report ppf r =
  if r.ok then Format.fprintf ppf "consistent (peak load %d)" r.peak_load
  else
    Format.fprintf ppf "@[<v>%d violation(s):@,%a@]"
      (List.length r.violations)
      (Format.pp_print_list pp_violation)
      r.violations
