module E = Chronus_experiments

(* Miniature scale so the full pipelines run in seconds. *)
let tiny = E.Scale.tiny

let test_scale_parse () =
  Alcotest.(check int) "quick instances" 10
    E.Scale.quick.E.Scale.instances;
  Alcotest.(check int) "paper instances" 500
    (E.Scale.parse "paper").E.Scale.instances;
  Alcotest.check_raises "unknown preset"
    (Invalid_argument "Scale.parse: unknown preset \"huge\"") (fun () ->
      ignore (E.Scale.parse "huge"))

let test_trial () =
  let rng = Chronus_topo.Rng.make 4 in
  let inst = Helpers.fig1 () in
  let t = E.Trial.run ~scale:tiny ~rng inst in
  Alcotest.(check bool) "chronus clean on fig1" true t.E.Trial.chronus_clean;
  Alcotest.(check int) "no congested links" 0
    t.E.Trial.chronus_congested_links;
  Alcotest.(check int) "makespan 4" 4 t.E.Trial.chronus_makespan;
  Alcotest.(check int) "or rounds" 2 t.E.Trial.or_rounds;
  Alcotest.(check bool) "tp needs more rules" true
    (t.E.Trial.tp_rules > t.E.Trial.chronus_rules)

let test_fig7_pipeline () =
  let rows = E.Fig7.run ~scale:tiny () in
  Alcotest.(check int) "one row per size" 2 (List.length rows);
  List.iter
    (fun r ->
      let sane p = p >= 0. && p <= 100. in
      Alcotest.(check bool) "percentages sane" true
        (sane r.E.Fig7.chronus_congestion_pct
        && sane r.E.Fig7.opt_congestion_pct
        && sane r.E.Fig7.or_congestion_pct);
      (* Chronus never congests more often than OR. *)
      Alcotest.(check bool) "chronus <= or" true
        (r.E.Fig7.chronus_congestion_pct <= r.E.Fig7.or_congestion_pct))
    rows

let test_fig8_pipeline () =
  (* Per-instance outcomes are noisy; the paper's claim is about the
     aggregate, so compare sums over a slightly larger sample. *)
  let scale = { tiny with E.Scale.instances = 12 } in
  let rows = E.Fig8.run ~scale () in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Alcotest.(check bool) "chronus total <= or total" true
    (total (fun r -> r.E.Fig8.chronus_congested)
    <= total (fun r -> r.E.Fig8.or_congested));
  List.iter
    (fun r ->
      Alcotest.(check bool) "counts non-negative" true
        (r.E.Fig8.chronus_congested >= 0 && r.E.Fig8.or_congested >= 0))
    rows

let test_fig9_pipeline () =
  let rows = E.Fig9.run ~scale:tiny () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "tp mean above chronus mean" true
        (r.E.Fig9.tp_mean > r.E.Fig9.chronus_mean);
      Alcotest.(check bool) "saving positive" true (r.E.Fig9.saving_pct > 0.))
    rows

let test_fig10_pipeline () =
  let rows = E.Fig10.run ~scale:tiny () in
  List.iter
    (fun r ->
      match r.E.Fig10.chronus with
      | E.Fig10.Seconds s ->
          Alcotest.(check bool) "chronus fast" true (s < 10.)
      | E.Fig10.Capped _ -> Alcotest.fail "chronus must not time out")
    rows

let test_fig11_pipeline () =
  let r = E.Fig11.run ~scale:tiny ~switches:8 () in
  Alcotest.(check bool) "has samples" true (r.E.Fig11.instances >= 1);
  Alcotest.(check bool) "opt median <= chronus median" true
    (r.E.Fig11.opt_median <= r.E.Fig11.chronus_median)

let test_fig6_pipeline () =
  let r = E.Fig6.run () in
  Alcotest.(check bool) "rows exist" true (List.length r.E.Fig6.rows > 5);
  (* The headline claim: OR overloads the link, Chronus stays in range. *)
  Alcotest.(check bool) "or congests" true
    (r.E.Fig6.or_peak > r.E.Fig6.capacity_mbps +. 0.1);
  Alcotest.(check bool) "chronus stays in range" true
    (r.E.Fig6.chronus_peak <= r.E.Fig6.capacity_mbps +. 0.1);
  Alcotest.(check bool) "tp stays in range" true
    (r.E.Fig6.tp_peak <= r.E.Fig6.capacity_mbps +. 0.1)

let test_table2 () =
  let r = E.Table2.run () in
  let has text sub =
    let n = String.length text and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub text i m = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "source stamps during transition" true
    (has r.E.Table2.source_during "set_tag:2");
  Alcotest.(check bool) "destination delivers" true
    (has r.E.Table2.destination_before "output:host");
  Alcotest.(check bool) "steady state has no version-2 rule" true
    (not (has r.E.Table2.source_before "tag 2"))

let keys figures = List.map (fun f -> f.E.Figures.key) figures

let test_figures_select () =
  let all = keys E.Figures.all in
  Alcotest.(check (list string)) "registry order, duplicates dropped"
    [ "fig7"; "scale" ]
    (match E.Figures.select [ "scale"; "fig7"; "scale" ] with
    | Ok figures -> keys figures
    | Error msg -> Alcotest.fail msg);
  Alcotest.(check (list string)) "all" all
    (match E.Figures.select [ "all" ] with
    | Ok figures -> keys figures
    | Error msg -> Alcotest.fail msg);
  let rejects what names =
    match E.Figures.select names with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error msg ->
        (* The error lists every valid key. *)
        List.iter
          (fun k ->
            let m = String.length k and n = String.length msg in
            let rec has i = i + m <= n && (String.sub msg i m = k || has (i + 1)) in
            if not (has 0) then Alcotest.failf "%s: %S omits %s" what msg k)
          all
  in
  rejects "empty selection" [];
  rejects "unknown key" [ "fig7"; "fig99" ];
  rejects "a title instead of a key" [ E.Fig7.name ]

(* Every registry entry's deterministic projection is byte-identical at
   jobs=1 and jobs=2 — the property the bench digest relies on. *)
let test_figures_det () =
  let unique l = List.length (List.sort_uniq compare l) = List.length l in
  Alcotest.(check bool) "keys unique" true (unique (keys E.Figures.all));
  Alcotest.(check bool) "titles unique" true
    (unique (List.map (fun f -> f.E.Figures.title) E.Figures.all));
  List.iter
    (fun (f : E.Figures.t) ->
      let det jobs =
        (f.E.Figures.run ~jobs ~scale:tiny E.Figures.default_axes).E.Figures.det
      in
      Alcotest.(check bool) (f.E.Figures.key ^ " det at jobs 1 = 2") true
        (String.equal (det 1) (det 2)))
    E.Figures.all

(* The bench report keeps one [Figures.measure] delta per figure instead
   of a process-wide snapshot. Two figures measured back to back must
   account for every counter tick and span of the run between them, and
   a figure's delta lists only the labels it touched. *)
let test_figures_measure () =
  let module Obs = Chronus_obs.Obs in
  let figure key =
    match E.Figures.select [ key ] with
    | Ok [ f ] -> f
    | Ok _ | Error _ -> Alcotest.failf "no figure %s" key
  in
  let measure key =
    snd (E.Figures.measure (figure key) ~jobs:1 ~scale:tiny E.Figures.default_axes)
  in
  let before = Obs.snapshot () in
  let table2 = measure "table2" in
  let fig8 = measure "fig8" in
  let total = Obs.diff before (Obs.snapshot ()) in
  let amount delta label =
    match List.assoc_opt label delta with
    | Some (Obs.Counter n) -> n
    | Some (Obs.Span s) -> s.Obs.Span.count
    | Some (Obs.Gauge _) | None -> 0
  in
  Alcotest.(check bool) "the pair did some counted work" true (total <> []);
  List.iter
    (fun (label, v) ->
      match v with
      | Obs.Gauge _ -> ()
      | Obs.Counter _ | Obs.Span _ ->
          Alcotest.(check int)
            (label ^ ": per-figure deltas add up to the pair's")
            (amount total label)
            (amount table2 label + amount fig8 label))
    total;
  List.iter
    (fun delta ->
      List.iter
        (fun (label, v) ->
          Alcotest.(check bool) (label ^ " listed only when touched") true
            (match v with
            | Obs.Counter n | Obs.Gauge n -> n > 0
            | Obs.Span s -> s.Obs.Span.count > 0))
        delta)
    [ table2; fig8 ];
  Alcotest.(check bool) "fig8 runs the greedy" true
    (List.mem_assoc "greedy.rounds" fig8);
  Alcotest.(check bool) "table2 does not" false
    (List.mem_assoc "greedy.rounds" table2)

let suite =
  ( "experiments",
    [
      Alcotest.test_case "scale presets" `Quick test_scale_parse;
      Alcotest.test_case "trial on the worked example" `Quick test_trial;
      Alcotest.test_case "fig7 pipeline" `Slow test_fig7_pipeline;
      Alcotest.test_case "fig8 pipeline" `Slow test_fig8_pipeline;
      Alcotest.test_case "fig9 pipeline" `Quick test_fig9_pipeline;
      Alcotest.test_case "fig10 pipeline" `Slow test_fig10_pipeline;
      Alcotest.test_case "fig11 pipeline" `Slow test_fig11_pipeline;
      Alcotest.test_case "fig6 pipeline" `Slow test_fig6_pipeline;
      Alcotest.test_case "table2" `Quick test_table2;
      Alcotest.test_case "figure registry select" `Quick test_figures_select;
      Alcotest.test_case "figure registry det at any jobs" `Slow
        test_figures_det;
      Alcotest.test_case "figure deltas add up" `Quick test_figures_measure;
    ] )
