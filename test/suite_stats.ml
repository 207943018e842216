open Chronus_stats

let feq = Alcotest.(check (float 1e-9))

let test_descriptive () =
  let xs = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  feq "mean" 5.0 (Descriptive.mean xs);
  feq "variance" 4.0 (Descriptive.variance xs);
  feq "min" 2.0 (Descriptive.minimum xs);
  feq "max" 9.0 (Descriptive.maximum xs);
  feq "total" 40.0 (Descriptive.total xs);
  feq "empty total" 0.0 (Descriptive.total []);
  Alcotest.check_raises "empty mean" (Invalid_argument "Descriptive: empty sample")
    (fun () -> ignore (Descriptive.mean []))

let test_percentiles () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  feq "median" 3.0 (Descriptive.median xs);
  feq "p0" 1.0 (Descriptive.percentile 0. xs);
  feq "p100" 5.0 (Descriptive.percentile 100. xs);
  feq "p25" 2.0 (Descriptive.percentile 25. xs);
  feq "interpolated" 3.5 (Descriptive.percentile 62.5 xs);
  feq "singleton" 7.0 (Descriptive.percentile 50. [ 7. ]);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Descriptive.percentile: p out of range") (fun () ->
      ignore (Descriptive.percentile 101. xs))

let test_cdf () =
  let cdf = Cdf.of_int_samples [ 1; 2; 2; 3; 10 ] in
  Alcotest.(check int) "size" 5 (Cdf.size cdf);
  feq "F(0)" 0.0 (Cdf.eval cdf 0.);
  feq "F(2)" 0.6 (Cdf.eval cdf 2.);
  feq "F(10)" 1.0 (Cdf.eval cdf 10.);
  feq "F(100)" 1.0 (Cdf.eval cdf 100.);
  feq "inverse median" 2.0 (Cdf.inverse cdf 0.5);
  feq "inverse 1.0" 10.0 (Cdf.inverse cdf 1.0);
  Alcotest.(check int) "distinct points" 4 (List.length (Cdf.points cdf));
  (* Points are a valid, increasing step function ending at 1. *)
  let points = Cdf.points cdf in
  let rec increasing = function
    | (x1, f1) :: ((x2, f2) :: _ as rest) ->
        x1 < x2 && f1 < f2 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (increasing points);
  feq "last point at 1" 1.0 (snd (List.nth points 3))

let test_boxplot () =
  let b = Boxplot.of_int_samples [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  feq "median" 5.0 b.Boxplot.median;
  feq "q1" 3.0 b.Boxplot.q1;
  feq "q3" 7.0 b.Boxplot.q3;
  feq "low whisker" 1.0 b.Boxplot.low_whisker;
  feq "high whisker" 9.0 b.Boxplot.high_whisker;
  Alcotest.(check int) "no outliers" 0 (List.length b.Boxplot.outliers);
  let with_outlier = Boxplot.of_int_samples [ 1; 2; 3; 4; 5; 100 ] in
  Alcotest.(check int) "outlier detected" 1
    (List.length with_outlier.Boxplot.outliers)

let test_table () =
  let t = Table.create ~headers:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "x"; "3.14" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "four lines" 4 (List.length lines);
  Alcotest.(check bool) "row rendered" true
    (List.exists
       (fun l ->
         let has sub =
           let n = String.length l and m = String.length sub in
           let rec scan i =
             i + m <= n && (String.sub l i m = sub || scan (i + 1))
           in
           scan 0
         in
         has "3.14")
       lines);
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let suite =
  ( "stats",
    [
      Alcotest.test_case "descriptive statistics" `Quick test_descriptive;
      Alcotest.test_case "percentiles" `Quick test_percentiles;
      Alcotest.test_case "empirical CDF" `Quick test_cdf;
      Alcotest.test_case "box plots" `Quick test_boxplot;
      Alcotest.test_case "text tables" `Quick test_table;
    ] )
