(* The four benchmark workloads. Each one is closed loop: the next
   operation starts when the previous one returns, on one domain.

   A run is a sequence of passes. Pass k of a workload is a [setup] from
   the seed and k, returning the operation to run for op index
   i = 0 .. batch-1 and an end-of-pass check. Inputs come only from
   [Rng.derive seed [lane; k; ...]], so pass k is the same work on every
   run and every commit, and its outputs digest does not change. *)

open Chronus_graph
open Chronus_flow
open Chronus_topo
open Chronus_core
open Chronus_sim
open Chronus_exec
module Obs = Chronus_obs.Obs
module Fiber = Chronus_fiber.Fiber
module Service = Chronus_service.Service
module Fig_scale = Chronus_experiments.Fig_scale

(* ------------------------------------------------------------------ *)
(* Bench-side layer timers: they wrap calls into lib/ from outside, so
   the library carries no benchmark instrumentation. [timed] always
   reads the clock (the end-to-end metrics need the duration); [traced]
   reads it only while tracing. *)

let tracing = ref false
let layer_ns : (string, int ref) Hashtbl.t = Hashtbl.create 32

let charge layer dt =
  if !tracing then
    match Hashtbl.find_opt layer_ns layer with
    | Some r -> r := !r + dt
    | None -> Hashtbl.add layer_ns layer (ref dt)

let timed layer f =
  let t0 = Obs.clock_ns () in
  let r = f () in
  let dt = Obs.clock_ns () - t0 in
  charge layer dt;
  (r, dt)

let traced layer f = if !tracing then fst (timed layer f) else f ()

let layer_ms layer =
  match Hashtbl.find_opt layer_ns layer with
  | Some r -> float_of_int !r /. 1e6
  | None -> 0.

(* ------------------------------------------------------------------ *)
(* What one pass over a workload's batch records. *)

type pass = {
  mutable setup_ns : int;
      (** input generation done lazily inside the pass, which counts as
          set-up, not as operation time *)
  mutable attempted : int;  (** instances, requests or cells *)
  mutable failed : int;  (** operations that failed the correctness gate *)
  mutable work : int;  (** numerator of [throughput_per_s] *)
  mutable busy_ns : int;
      (** time inside the measured calls, the denominator of
          [throughput_per_s] *)
  latency_ns : int array;
      (** per latency sample slot ([samples] per operation); -1 where an
          operation produced fewer samples *)
  mutable makespan_sum : int;
  mutable makespan_n : int;
  digest : Buffer.t;  (** the pass's deterministic outputs *)
  facts : (string, float) Hashtbl.t;  (** workload-specific per-layer sums *)
}

let fact p k = Option.value ~default:0. (Hashtbl.find_opt p.facts k)
let add_fact p k x = Hashtbl.replace p.facts k (fact p k +. x)
let max_fact p k x = Hashtbl.replace p.facts k (Float.max (fact p k) x)

let require p ok what =
  if not ok then begin
    p.failed <- p.failed + 1;
    if p.failed <= 5 then prerr_endline ("correctness gate: " ^ what ())
  end

let add_busy p ns = p.busy_ns <- p.busy_ns + ns

let add_schedule_digest p s =
  List.iter
    (fun (v, t) -> Printf.bprintf p.digest "%d@%d," v t)
    (Schedule.to_list s)

let add_makespan p m =
  p.makespan_sum <- p.makespan_sum + m;
  p.makespan_n <- p.makespan_n + 1

type t = {
  name : string;
  batch : int;  (** operations per pass *)
  samples : int;  (** latency samples per operation, at most *)
  setup : int -> int -> (pass -> int -> unit) * (pass -> unit);
      (** [setup seed k] builds the inputs of pass k and returns the
          operation and the end-of-pass check *)
}

let new_pass w =
  {
    setup_ns = 0;
    attempted = 0;
    failed = 0;
    work = 0;
    busy_ns = 0;
    latency_ns = Array.make (w.batch * w.samples) (-1);
    makespan_sum = 0;
    makespan_n = 0;
    digest = Buffer.create 4096;
    facts = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* solve-paper and solve-large: one update instance per operation,
   through [Fallback.schedule ~mode:Analytic] — the Chronus half of
   [Trial.run]. Each instance is generated just before it is solved, so
   only one is alive at a time; its generation time counts as set-up.
   Switch counts follow a Weyl sequence over [lo, hi] along the run's
   instances, the same for every seed, so the seed only draws the
   paths. *)

let weyl_size ~lo ~hi j =
  let frac = Float.rem (float_of_int j *. 0.6180339887498949) 1. in
  lo + int_of_float (frac *. float_of_int (hi - lo + 1))

let solve ~name ~lane ~batch ~lo ~hi gen =
  let setup seed k =
    let op p j =
      let inst, gen_ns =
        timed "topo.generate" (fun () ->
            gen
              ~rng:(Rng.derive seed [ lane; k; j ])
              (weyl_size ~lo ~hi ((k * batch) + j)))
      in
      p.setup_ns <- p.setup_ns + gen_ns;
      let { Fallback.schedule = s; clean }, dt =
        timed "core.schedule" (fun () ->
            Fallback.schedule ~mode:Greedy.Analytic inst)
      in
      let ok =
        if clean then
          traced "dynflow.evaluate" (fun () -> Oracle.is_consistent inst s)
        else traced "bench.check" (fun () -> Schedule.covers inst s)
      in
      require p ok (fun () ->
          Printf.sprintf "%s pass %d instance %d: %s" name k j
            (if clean then "clean schedule is not oracle-consistent"
             else "fallback schedule does not cover the update"));
      traced "bench.check" (fun () ->
          p.attempted <- p.attempted + 1;
          p.work <- p.work + 1;
          add_busy p dt;
          p.latency_ns.(j) <- dt;
          Printf.bprintf p.digest "%d:%b:" j clean;
          add_schedule_digest p s;
          add_makespan p (Schedule.makespan s))
    in
    (op, ignore)
  in
  { name; batch; samples = 1; setup }

(* 10-20 switches, the low end of Figs. 7-9's 10-60: at 20-40 an
   instance averages about 90 ms, so only ~100 fit in a run of 8 s, and
   their median moved by half between seeds. *)
let solve_paper ~smoke =
  solve ~name:"solve-paper" ~lane:101
    ~batch:(if smoke then 16 else 300)
    ~lo:10 ~hi:20
    (fun ~rng n -> Scenario.random_final ~rng (Scenario.spec n))

let solve_large ~smoke =
  solve ~name:"solve-large" ~lane:102
    ~batch:(if smoke then 4 else 10)
    ~lo:(if smoke then 300 else 1000)
    ~hi:(if smoke then 600 else 4000)
    (fun ~rng n ->
      Scenario.long_chain ~rng (Scenario.spec ~capacity_choices:[ 2 ] n))

(* ------------------------------------------------------------------ *)
(* service-churn: the fig-service rate-16 shape. [cells] independent
   32-site WANs (capacity 3) each carry 16 unit flows; round r goes to
   cell (r mod cells): 16 clients each ask to move a random flow onto
   the min-hop detour around one failed link of its current path, then
   [Service.process ~jobs:1] drains the queue. Every pass draws its own
   WANs, so a run averages out how much one random topology contends. *)

let wan_params = { Topology.capacity = 3; delay = 1 }
let wan_sites = 32
let wan_flows = 16
let per_round = 16

(* Flow placement and request generation follow lib/experiments'
   fig-service generators (not exported there). *)
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
    List.iter
      (fun (u, v) -> Hashtbl.replace loads (u, v) (load u v + 1))
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

let denial_digest = function
  | Service.Unknown_flow f -> Printf.sprintf "unknown %d" f
  | Service.Invalid_path m -> "invalid " ^ m
  | Service.Queue_full { limit } -> Printf.sprintf "full %d" limit
  | Service.Conflict { with_rid; _ } -> Printf.sprintf "conflict %d" with_rid
  | Service.Capacity { u; v; _ } -> Printf.sprintf "capacity %d-%d" u v
  | Service.Unschedulable { remaining } ->
      Printf.sprintf "unschedulable %d" remaining

let service_churn ~smoke =
  let cells = if smoke then 2 else 4 in
  let setup seed k =
    let cell c =
      let g =
        traced "topo.generate" (fun () ->
            Topology.wan ~params:wan_params
              ~rng:(Rng.derive seed [ 111; k; c ])
              wan_sites)
      in
      let multi =
        traced "topo.generate" (fun () ->
            Instance.create_multi ~graph:g
              (build_flows ~rng:(Rng.derive seed [ 112; k; c ]) g wan_flows))
      in
      let svc = traced "service.create" (fun () -> Service.create multi) in
      (g, List.length (Instance.flows multi), svc)
    in
    let cells = Array.init cells cell in
    let op p r =
      let g, n_flows, svc = cells.(r mod Array.length cells) in
      let requests =
        traced "bench.generate" (fun () ->
            let rng = Rng.derive seed [ 113; k; r ] in
            List.init per_round (fun _ ->
                let fid = Rng.int rng n_flows in
                let current = Option.get (Service.current_path svc fid) in
                (fid, request_for ~rng g current)))
      in
      let door = ref 0 in
      List.iter
        (fun (fid, target) ->
          let res, dt =
            timed "service.submit" (fun () -> Service.submit svc ~fid ~target)
          in
          add_busy p dt;
          if Result.is_error res then incr door)
        requests;
      let outcomes, dt =
        timed "service.process" (fun () -> Service.process ~jobs:1 svc)
      in
      add_busy p dt;
      traced "bench.check" (fun () ->
          p.attempted <- p.attempted + per_round;
          let committed = ref 0 and denied = ref !door in
          List.iteri
            (fun k o ->
              p.latency_ns.((r * per_round) + k) <- o.Service.wall_ns;
              if o.Service.serialized_after <> [] then
                add_fact p "serialized" 1.;
              match o.Service.verdict with
              | Service.Committed { makespan; _ } ->
                  incr committed;
                  if makespan > 0 then add_makespan p makespan
              | Service.Denied _ -> incr denied)
            outcomes;
          p.work <- p.work + !committed;
          add_fact p "denied" (float_of_int !denied);
          add_fact p "requests" (float_of_int per_round);
          require p
            (!committed + !denied = per_round
            && List.length outcomes + !door = per_round)
            (fun () ->
              Printf.sprintf
                "service round %d: %d submitted but %d committed + %d denied"
                r per_round !committed !denied);
          List.iter
            (fun o ->
              Printf.bprintf p.digest "%d/%d/%d/%s:" o.Service.rid
                o.Service.fid o.Service.batch
                (String.concat ","
                   (List.map string_of_int o.Service.serialized_after));
              match o.Service.verdict with
              | Service.Committed { schedule; _ } ->
                  add_schedule_digest p schedule
              | Service.Denied d ->
                  Buffer.add_string p.digest (denial_digest d))
            outcomes)
    in
    (* The final routes must still form a valid joint steady state. *)
    let finish p =
      traced "bench.check" (fun () ->
          Array.iteri
            (fun c (g, _, svc) ->
              let flows =
                List.map
                  (fun (fid, path) ->
                    { Instance.fid; f_demand = 1; f_init = path; f_fin = path })
                  (Service.routes svc)
              in
              require p
                (match Instance.create_multi ~graph:g flows with
                | _ -> true
                | exception Instance.Ill_formed _ -> false)
                (fun () ->
                  Printf.sprintf "service cell %d: final routes are invalid" c))
            cells)
    in
    (op, finish)
  in
  {
    name = "service-churn";
    batch = (if smoke then 20 else 800);
    samples = per_round;
    setup;
  }

(* ------------------------------------------------------------------ *)
(* dataplane-conns: per cell, a k=16 fat-tree reroute carried out by
   [Timed_exec] on tables preloaded with the compiled prefix base
   ([Fig_scale.compiled_preinstall]), under 10,000 concurrent
   control-channel session fibers — the fig-conns shape. A pass is one
   cell. A cell takes about a second, too few per run for a tail
   percentile of the cell time, so the engine runs the cell in [window]s
   of virtual time and
   each window's wall time is one latency sample: how long the simulator
   takes to carry the network through 50 ms. *)

let window = Sim_time.msec 50

(* Latency slots per cell: 5 s of virtual time, more than a cell runs. *)
let windows_per_cell = 100

(* An echo destination no flow table holds: the [Remove] is a no-op on
   the switch's rules, but the command and its ack ride the full
   controller -> switch -> controller channel. *)
let echo_dst = 0x3FFF_FF00

(* The fig-conns session loop: ping a fixed switch, await the ack, think
   100-300 virtual ms, repeat until [stop]. *)
let session ~env ~rng ~switch ~stop ~pings box =
  let rec loop () =
    if Fiber.now () < stop then begin
      Exec_env.dispatch env ~switch
        ~on_ack:(fun at -> Fiber.Mailbox.send box at)
        (Controller.Remove { dst = echo_dst; tag_match = Flow_table.Any_tag });
      ignore (Fiber.Mailbox.recv box);
      incr pings;
      Fiber.sleep (Rng.in_range rng (Sim_time.msec 100) (Sim_time.msec 300));
      loop ()
    end
  in
  loop ()

let dataplane_conns ~smoke =
  let k = if smoke then 4 else 16 in
  let conns = if smoke then 500 else 10_000 in
  let setup seed pass =
    let g = traced "topo.generate" (fun () -> Topology.fat_tree k) in
    let preinstall =
      traced "sim.compile" (fun () ->
          let kind = Fig_scale.Fat_tree k in
          let addressing = Fig_scale.addressing g kind in
          fst (Fig_scale.compiled_preinstall g kind addressing))
    in
    let config =
      {
        Exec_env.default with
        Exec_env.warmup = Sim_time.sec 1;
        drain = Sim_time.sec 2;
        preinstall;
      }
    in
    let op p i =
      let rng = Rng.derive seed [ 121; pass; i ] in
      let inst =
        traced "topo.generate" (fun () -> Scenario.fat_tree_reroute ~rng k)
      in
      let { Fallback.schedule; clean } =
        traced "core.schedule" (fun () -> Fallback.schedule inst)
      in
      let env =
        traced "exec.build" (fun () ->
            Exec_env.build ~config
              ~seed:(Rng.int rng 0x3FFFFFFF)
              ~tag_initial:None inst)
      in
      let engine = Network.engine env.Exec_env.net in
      let rt = Engine.fiber_runtime engine in
      let prog =
        traced "exec.launch" (fun () -> Timed_exec.launch env schedule)
      in
      let stop = prog.Timed_exec.deadline in
      let pings = ref 0 in
      let sessions =
        traced "fiber.lifecycle" (fun () ->
            let nodes = Array.of_list (Graph.nodes inst.Instance.graph) in
            List.init conns (fun s ->
                let srng = Rng.derive seed [ 122; pass; i; s ] in
                let switch = nodes.(Rng.int srng (Array.length nodes)) in
                let box = Fiber.Mailbox.create rt in
                Fiber.spawn_root rt (fun () ->
                    (* Desynchronise the first ping across the warmup. *)
                    Fiber.sleep_until (Rng.in_range srng 0 (Sim_time.msec 900));
                    session ~env ~rng:srng ~switch ~stop ~pings box)))
      in
      let events0 = Engine.dispatched engine in
      let start = Engine.now engine and until = stop + Sim_time.sec 1 in
      let windows = (until - start + window - 1) / window in
      require p (windows <= windows_per_cell) (fun () ->
          Printf.sprintf "dataplane cell %d: %d windows, room for %d" i
            windows windows_per_cell);
      for win = 0 to min windows windows_per_cell - 1 do
        let (), ns =
          timed "sim.run" (fun () ->
              Engine.run
                ~until:(min until (start + ((win + 1) * window)))
                engine)
        in
        add_busy p ns;
        p.latency_ns.((i * windows_per_cell) + win) <- ns;
        Host.tick ()
      done;
      let events = Engine.dispatched engine - events0 in
      traced "fiber.lifecycle" (fun () ->
          List.iter Fiber.cancel sessions;
          Fiber.drain rt);
      let update_done =
        Option.value ~default:(stop + Sim_time.sec 1) prog.Timed_exec.finished
      in
      let result =
        traced "exec.finish" (fun () -> Exec_env.finish env ~update_done)
      in
      traced "bench.check" (fun () ->
          p.attempted <- p.attempted + 1;
          p.work <- p.work + events;
          max_fact p "peak_live"
            (float_of_int (Fiber.stats rt).Fiber.peak_live);
          add_fact p "update_span_ms"
            (Sim_time.to_msec result.Exec_env.update_span);
          require p
            (clean
            && (not prog.Timed_exec.fallen_back)
            && prog.Timed_exec.pending = 0
            && Monitor.no_violations result.Exec_env.violations)
            (fun () ->
              Printf.sprintf
                "dataplane cell %d: the update did not finish cleanly on the \
                 timed path"
                i);
          add_schedule_digest p schedule;
          Printf.bprintf p.digest "|%d/%d/%d/%d;" result.Exec_env.events
            result.Exec_env.update_span result.Exec_env.commands !pings;
          add_makespan p (Schedule.makespan schedule))
    in
    (op, ignore)
  in
  {
    name = "dataplane-conns";
    batch = (if smoke then 2 else 1);
    samples = windows_per_cell;
    setup;
  }

let all ~smoke =
  [ solve_paper ~smoke; solve_large ~smoke; service_churn ~smoke;
    dataplane_conns ~smoke ]
