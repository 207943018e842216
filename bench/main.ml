(* The benchmark executable.

   Runs every entry of the figure registry ([Figures]: Table II,
   Figs. 6-11 of the paper's evaluation and the added figures) at the
   `quick` scale and prints the same rows/series the paper reports — set
   CHRONUS_SCALE=paper in the environment for the published scale
   (CHRONUS_SCALE=tiny is the CI smoke scale). When more than one domain
   is available (CHRONUS_JOBS, else the recommended domain count) the
   suite is run twice — once sequentially, once with the trial fan-out —
   the wall-clock of both passes is reported, and the deterministic
   experiment rows of the two passes are checked for equality.

   The rows, the wall clocks and each figure's observability delta land
   in BENCH_results.json (schema documented in EXPERIMENTS.md) so
   successive PRs can track the perf trajectory mechanically. Per-layer
   costs of the library are perfbench's job (perfbench/README.md). *)

module E = Chronus_experiments
module F = E.Figures
module Pool = Chronus_parallel.Pool
module Obs = Chronus_obs.Obs

(* ------------------------------------------------------------------ *)
(* The experiment suite.                                               *)

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

(* One figure's observability delta on the jobs=1 pass: counters and
   gauges as numbers, spans as {count, total_ns, max_ns} objects (keyed
   by figure since chronus-bench/11). *)
let delta_json snap =
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
       snap)

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

let write_json ~path ~scale_name ~jobs ~host_cores seq par =
  let experiments_json =
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
    match List.find_opt (fun (g, _, _) -> g == f) seq.figures with
    | Some (_, (o : F.output), _) -> cells_json o.F.cells
    | None -> Json.Null
  in
  let reports =
    List.filter_map
      (fun (f : F.t) -> Option.map (fun name -> (name, report f)) f.F.report)
      F.all
  in
  let metrics =
    Json.Obj
      (List.map
         (fun ((f : F.t), _, snap) -> (f.F.key, delta_json snap))
         seq.figures)
  in
  let doc =
    Json.Obj
      ([
         ("schema", Json.String "chronus-bench/11");
         ("scale", Json.String scale_name);
         ("jobs", Json.Int jobs);
         ("host_cores", Json.Int host_cores);
         ("experiments", experiments_json);
       ]
      @ reports
      @ [ ("metrics", metrics) ])
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
  let seq = run_suite ~jobs:1 figures scale in
  let par = if jobs > 1 then Some (run_suite ~jobs figures scale) else None in
  (* The two passes print identical rows; show the sequential one, whose
     deltas are the report's [metrics]. *)
  print_suite ~metrics seq;
  Printf.printf "\nexperiment suite wall clock: %.2f s at jobs=1" seq.wall_s;
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
      "note: speedup not meaningful: 1 physical core (jobs > 1 time-slices \
       one core)";
  let path =
    Option.value ~default:"BENCH_results.json"
      (Sys.getenv_opt "CHRONUS_BENCH_OUT")
  in
  write_json ~path ~scale_name ~jobs ~host_cores seq par;
  print_newline ()
