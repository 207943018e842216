module Obs = Chronus_obs.Obs

type axes = {
  topos : Fig_scale.kind list option;
  rates : int list option;
  conns : int list option;
}

let default_axes = { topos = None; rates = None; conns = None }

let parse_topo s =
  let num prefix =
    let p = String.length prefix in
    if String.length s > p && String.starts_with ~prefix s then
      int_of_string_opt (String.sub s p (String.length s - p))
    else None
  in
  match (s, num "fat", num "wan") with
  | "b4", _, _ -> Fig_scale.B4
  | _, Some k, _ -> Fig_scale.Fat_tree k
  | _, _, Some n -> Fig_scale.Wan n
  | _ ->
      invalid_arg
        (Printf.sprintf "unknown topology %S (expected fatK, b4 or wanN)" s)

type value = Int of int | Float of float | Bool of bool

type output = {
  print : unit -> unit;
  det : string;
  cells : (string * (string * value) list) list;
}

type t = {
  key : string;
  title : string;
  trial : bool;
  report : string option;
  run : jobs:int -> scale:Scale.t -> axes -> output;
}

(* [det] marshals [project rows]: the identity for figures that are a
   pure function of (scale, seed), a copy with the measured columns
   zeroed for the rest. *)
let output ?(cells = []) print project rows =
  {
    print = (fun () -> print rows);
    det = Marshal.to_string (project rows) [];
    cells;
  }

let figure ?(trial = false) ?report key title run =
  { key; title; trial; report; run }

let scale_cell (r : Fig_scale.row) =
  ( r.topo,
    [
      ("switches", Int r.switches);
      ("links", Int r.links);
      ("rules_exact", Int r.rules_exact);
      ("rules_compiled", Int r.rules_compiled);
      ("compression", Float r.compression);
      ("table_words", Int r.table_words);
      ("updates", Int r.updates);
      ("events", Int r.events);
      ("chronus_span_s", Float r.chronus_span_s);
      ("tp_span_s", Float r.tp_span_s);
      ("or_span_s", Float r.or_span_s);
      ("chronus_clean", Bool r.chronus_clean);
      ("events_per_s", Float r.events_per_s);
      ("lookup_ns", Float r.lookup_ns);
    ] )

let service_cell (r : Fig_service.row) =
  let denial_rate =
    if r.submitted > 0 then float_of_int r.denied /. float_of_int r.submitted
    else nan
  in
  ( Printf.sprintf "rate-%d" r.offered_per_round,
    [
      ("rounds", Int r.rounds);
      ("flows", Int r.flows);
      ("submitted", Int r.submitted);
      ("committed", Int r.committed);
      ("serialized", Int r.serialized);
      ("serialized_rate", Float r.serialized_rate);
      ("denied", Int r.denied);
      ("batches", Int r.batches);
      ("denial_rate", Float denial_rate);
      ("full_evals", Int r.full_evals);
      ("full_evals_per_txn", Float r.full_evals_per_txn);
      ("mean_makespan", Float r.mean_makespan);
      ("throughput_per_s", Float r.throughput_per_s);
      ("p50_ms", Float r.p50_ms);
      ("p99_ms", Float r.p99_ms);
    ] )

let conns_cell (r : Fig_conns.row) =
  ( Printf.sprintf "conns-%d" r.conns,
    [
      ("switches", Int r.switches);
      ("peak_fibers", Int r.peak_fibers);
      ("pings", Int r.pings);
      ("rtt_p50_ms", Float r.rtt_p50_ms);
      ("rtt_p99_ms", Float r.rtt_p99_ms);
      ("update_clean", Bool r.update_clean);
      ("update_span_s", Float r.update_span_s);
      ("events", Int r.events);
      ("wall_s", Float r.wall_s);
    ] )

let all =
  [
    figure "table2" Table2.name (fun ~jobs ~scale:_ _ ->
        output Table2.print Fun.id (Table2.run ~jobs ()));
    figure "fig6" Fig6.name (fun ~jobs:_ ~scale:_ _ ->
        output Fig6.print Fun.id (Fig6.run ()));
    figure ~trial:true "fig7" Fig7.name (fun ~jobs ~scale _ ->
        output Fig7.print Fun.id (Fig7.run ~jobs ~scale ()));
    figure ~trial:true "fig8" Fig8.name (fun ~jobs ~scale _ ->
        output Fig8.print Fun.id (Fig8.run ~jobs ~scale ()));
    figure ~trial:true "fig9" Fig9.name (fun ~jobs ~scale _ ->
        output Fig9.print Fun.id (Fig9.run ~jobs ~scale ()));
    figure "fig10" Fig10.name (fun ~jobs ~scale _ ->
        output Fig10.print
          (List.map (fun (r : Fig10.row) -> (r.switches, r.updates)))
          (Fig10.run ~jobs ~scale ()));
    figure ~trial:true "fig11" Fig11.name (fun ~jobs ~scale _ ->
        output Fig11.print Fun.id (Fig11.run ~jobs ~scale ()));
    figure ~trial:true "robust" Fig_robust.name (fun ~jobs ~scale _ ->
        output Fig_robust.print Fun.id (Fig_robust.run ~jobs ~scale ()));
    figure ~report:"scale_rows" "scale" Fig_scale.name (fun ~jobs ~scale a ->
        let rows = Fig_scale.run ~jobs ~scale ?kinds:a.topos () in
        output Fig_scale.print
          ~cells:(List.map scale_cell rows)
          (List.map (fun (r : Fig_scale.row) ->
               { r with events_per_s = 0.; lookup_ns = 0. }))
          rows);
    figure ~report:"service" "service" Fig_service.name (fun ~jobs ~scale a ->
        let rows = Fig_service.run ~jobs ~scale ?rates:a.rates () in
        output Fig_service.print
          ~cells:(List.map service_cell rows)
          (List.map (fun (r : Fig_service.row) ->
               {
                 r with
                 throughput_per_s = 0.;
                 p50_ms = 0.;
                 p99_ms = 0.;
                 full_evals = 0;
                 full_evals_per_txn = 0.;
               }))
          rows);
    figure ~report:"conns" "conns" Fig_conns.name (fun ~jobs ~scale a ->
        let rows = Fig_conns.run ~jobs ~scale ?conns:a.conns () in
        output Fig_conns.print
          ~cells:(List.map conns_cell rows)
          (List.map (fun (r : Fig_conns.row) -> { r with wall_s = 0. }))
          rows);
    figure ~trial:true "ablation" Ablation.name (fun ~jobs ~scale _ ->
        output Ablation.print Fun.id (Ablation.run ~jobs ~scale ()));
  ]

let select names =
  let keys = List.map (fun f -> f.key) all in
  let error what =
    Error
      (Printf.sprintf "%s; valid figures: %s" what
         (String.concat ", " (keys @ [ "all" ])))
  in
  match List.find_opt (fun n -> n <> "all" && not (List.mem n keys)) names with
  | Some n -> error (Printf.sprintf "unknown figure %S" n)
  | None when names = [] -> error "no figure selected"
  | None ->
      Ok (List.filter (fun f -> List.mem "all" names || List.mem f.key names) all)

let measure f ~jobs ~scale axes =
  let before = Obs.snapshot () in
  let out = f.run ~jobs ~scale axes in
  (out, Obs.diff before (Obs.snapshot ()))

let print_metrics f = function
  | [] -> ()
  | snap ->
      Printf.printf "\n-- metrics (%s) --\n" f.title;
      Obs.print_table snap
