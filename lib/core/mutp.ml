open Chronus_graph
open Chronus_flow

let all_at_zero inst =
  List.fold_left
    (fun s v -> Schedule.add v 0 s)
    Schedule.empty
    (Instance.switches_to_update inst)

let lower_bound inst =
  if Instance.is_trivial inst then 0
  else if Oracle.is_consistent inst (all_at_zero inst) then 1
  else 2

(* Loop-free cohort paths through the mixed old/new rule space, with the
   time-extended links they occupy. *)
let cohort_paths inst ~cap tau =
  let g = inst.Instance.graph in
  let dst = Instance.destination inst in
  let found = ref [] and count = ref 0 in
  let rec extend v t visited links =
    if !count >= cap then ()
    else if v = dst then begin
      incr count;
      found := List.rev links :: !found
    end
    else begin
      let hops =
        List.sort_uniq compare
          (List.filter_map Fun.id
             [ Instance.old_next inst v; Instance.new_next inst v ])
      in
      List.iter
        (fun w ->
          if not (List.mem w visited) then
            extend w
              (t + Graph.delay g v w)
              (w :: visited)
              ((v, w, t) :: links))
        hops
    end
  in
  extend (Instance.source inst) tau [ Instance.source inst ] [];
  List.rev !found

let render_ilp ?horizon ?(max_paths_per_flow = 16) inst =
  let b = Buffer.create 4096 in
  let g = inst.Instance.graph in
  let d = inst.Instance.demand in
  let bound =
    match horizon with
    | Some h -> h
    | None -> min 4 (Feasibility.default_horizon inst)
  in
  let taus =
    List.init (Instance.init_delay inst + bound + 1) (fun i ->
        i - Instance.init_delay inst)
  in
  let flows =
    List.map (fun tau -> (tau, cohort_paths inst ~cap:max_paths_per_flow tau)) taus
  in
  Buffer.add_string b "minimize |T|\nsubject to\n";
  (* (3a): one capacity row per time-extended link used by any path. *)
  let rows = Hashtbl.create 64 in
  List.iter
    (fun (tau, paths) ->
      List.iteri
        (fun pi links ->
          List.iter
            (fun (u, v, t) ->
              let var = Printf.sprintf "x[f%d,p%d]" tau pi in
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt rows (u, v, t))
              in
              Hashtbl.replace rows (u, v, t) (var :: prev))
            links)
        paths)
    flows;
  Hashtbl.fold (fun key vars acc -> (key, vars) :: acc) rows []
  |> List.sort compare
  |> List.iter (fun ((u, v, t), vars) ->
         Buffer.add_string b
           (Printf.sprintf "  (3a) %d * (%s) <= %d    # link v%d(t%d) -> v%d(t%d)\n"
              d
              (String.concat " + " (List.rev vars))
              (Graph.capacity g u v) u t v
              (t + Graph.delay g u v)));
  (* (3b): each cohort picks exactly one path. *)
  List.iter
    (fun (tau, paths) ->
      let vars =
        List.mapi (fun pi _ -> Printf.sprintf "x[f%d,p%d]" tau pi) paths
      in
      if vars <> [] then
        Buffer.add_string b
          (Printf.sprintf "  (3b) %s = 1\n" (String.concat " + " vars)))
    flows;
  (* (3c): integrality. *)
  Buffer.add_string b "  (3c) x[f,p] in {0, 1} for all f, p\n";
  Buffer.contents b
