open Chronus_graph
open Chronus_flow

type verdict =
  | Safe
  | Would_loop of Graph.node
  | Would_congest of Graph.node * Graph.node * int
  | Would_blackhole of Graph.node
  | Not_drained

let is_safe = function Safe -> true | _ -> false

type stream_walk = {
  feed : Horizon.t;
  base : int;
  visits : (Graph.node * int) list;
  index : (Graph.node, int * int) Hashtbl.t;
      (* switch -> (absolute visit step, position); origin has position 0 *)
}

let make_walk ~feed ~base visits =
  let index = Hashtbl.create (List.length visits) in
  List.iteri
    (fun pos (y, t) ->
      if not (Hashtbl.mem index y) then Hashtbl.replace index y (t, pos))
    visits;
  { feed; base; visits; index }

let walk_feed w = w.feed
let walk_base w = w.base
let walk_visits w = w.visits
let with_feed feed w = { w with feed }

let walk_crosses w y =
  match Hashtbl.find_opt w.index y with
  | Some (_, pos) -> pos > 0
  | None -> false

(* Until when does walk [w] keep delivering cohorts to [y]? [Never] if the
   walk does not pass [y]. The walk's origin is excluded: traffic entering
   the origin is the feed itself, accounted separately. *)
let walk_horizon_at w y =
  match Hashtbl.find_opt w.index y with
  | Some (t_y, pos) when pos > 0 -> Horizon.add w.feed (t_y - w.base)
  | Some _ | None -> Horizon.Never

(* Does the walk cross [blocker] strictly before [y]? Such a walk is being
   rerouted at [blocker] by the flip under test, so its recorded suffix
   beyond [blocker] is stale. *)
let passes_before w ~blocker y =
  match (Hashtbl.find_opt w.index blocker, Hashtbl.find_opt w.index y) with
  | Some (_, pb), Some (_, py) -> pb < py
  | _ -> false

type stream_view = {
  all : stream_walk list;
  by_node : (Graph.node, stream_walk list) Hashtbl.t;
      (* walks crossing each switch (other than as their origin) *)
}

let no_streams = { all = []; by_node = Hashtbl.create 1 }

let view_of_walks walks =
  let by_node = Hashtbl.create 64 in
  List.iter
    (fun w ->
      match w.visits with
      | [] -> ()
      | _origin :: rest ->
          List.iter
            (fun (y, _) ->
              let existing =
                Option.value ~default:[] (Hashtbl.find_opt by_node y)
              in
              Hashtbl.replace by_node y (w :: existing))
            rest)
    walks;
  { all = walks; by_node }

let walks_through view y =
  Option.value ~default:[] (Hashtbl.find_opt view.by_node y)

(* Streams that may still deliver traffic to the candidate itself. *)
let stream_arrivals_until view v =
  List.fold_left
    (fun acc w -> Horizon.max acc (walk_horizon_at w v))
    Horizon.Never (walks_through view v)

(* Multiplicity test along the traced walk. Everything that still arrives
   at the candidate — the pure old stream and every live earlier walk —
   merges onto its new outgoing link and travels together ([carried]
   units of demand). At every crossed link the merged stream additionally
   meets the local old stream (while live under the candidate's flip) and
   every live earlier walk, except walks that reached this switch through
   the candidate: those are part of the merged stream already (their
   recorded suffix is the route being rerouted). The link must have room
   for the total. *)
let congestion_along_walk inst dview view ~flip visits =
  let g = inst.Instance.graph in
  let d = inst.Instance.demand in
  let candidate, _ = flip in
  let old_live y s =
    if Horizon.at_or_after (Drain.last_arrival_after_flip dview ~flip y) s
    then 1
    else 0
  in
  let walks_at ?blocker y s =
    List.length
      (List.filter
         (fun w ->
           Horizon.at_or_after (walk_horizon_at w y) s
           &&
           match blocker with
           | None -> true
           | Some b -> not (passes_before w ~blocker:b y))
         (walks_through view y))
  in
  match visits with
  | [] -> Safe
  | (v0, t0) :: _ ->
      let carried = max 1 (old_live v0 t0 + walks_at v0 t0) in
      let rec scan = function
        | (y, s) :: ((z, _) :: _ as tl) ->
            let extra =
              if y = v0 then 0
              else old_live y s + walks_at ~blocker:candidate y s
            in
            if (carried + extra) * d > Graph.capacity g y z then
              Would_congest (y, z, s)
            else scan tl
        | [ _ ] | [] -> Safe
      in
      scan visits

(* The candidate's own flip never changes its own arrivals, so the
   committed view answers for [v] itself; downstream horizons under the
   flip come pointwise from {!Drain.last_arrival_after_flip}. *)
let analytic ?(streams = no_streams) ~tracer inst dview sched ~time v =
  let old_until = Drain.last_arrival dview v in
  let until = Horizon.max old_until (stream_arrivals_until streams v) in
  match Instance.new_next inst v with
  | None ->
      (* Deleting the rule: safe only once no traffic — old stream or
         redirected stream — arrives anymore, otherwise in-flight cohorts
         would be blackholed. *)
      if Horizon.before until time then Safe else Not_drained
  | Some _ ->
      if Horizon.before until time then
        (* Inert: no cohort will ever be redirected by this flip; traffic
           arriving later (once upstream flips) wants the new rule in
           place. *)
        Safe
      else begin
        let cohort =
          Oracle.trace_from tracer (Schedule.add v time sched) v time
        in
        match cohort.Oracle.outcome with
        | Oracle.Looped w -> Would_loop w
        | Oracle.Dropped w -> Would_blackhole w
        | Oracle.Delivered -> (
            (* While pure-old cohorts still arrive at [v], they have
               visited its whole old-path prefix: if the onward walk
               touches any prefix switch, they revisit it — a Definition 2
               loop the fresh trace alone cannot see (this is the very
               situation Algorithm 4's backward walk detects). Cohorts fed
               by a redirected stream took a different route, so the
               check only applies while old arrivals are live. *)
            let revisited =
              if Horizon.at_or_after old_until time then
                List.find_opt
                  (fun (z, _) -> Drain.is_upstream dview ~of_:v z)
                  cohort.Oracle.visits
              else None
            in
            match revisited with
            | Some (z, _) -> Would_loop z
            | None ->
                congestion_along_walk inst dview streams ~flip:(v, time)
                  cohort.Oracle.visits)
      end

let of_report report =
  match report.Oracle.violations with
  | [] -> Safe
  | Oracle.Congestion { u; v; time; _ } :: _ -> Would_congest (u, v, time)
  | Oracle.Loop { switch; _ } :: _ -> Would_loop switch
  | Oracle.Blackhole { switch; _ } :: _ -> Would_blackhole switch

let pp_verdict ppf = function
  | Safe -> Format.pp_print_string ppf "safe"
  | Would_loop v -> Format.fprintf ppf "would loop through v%d" v
  | Would_congest (u, v, t) ->
      Format.fprintf ppf "would congest v%d -> v%d at t=%d" u v t
  | Would_blackhole v -> Format.fprintf ppf "would blackhole at v%d" v
  | Not_drained -> Format.pp_print_string ppf "traffic not yet drained"
