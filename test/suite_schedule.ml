open Chronus_flow

let test_build_and_query () =
  let s = Schedule.of_list [ (2, 0); (1, 3); (5, 3) ] in
  Alcotest.(check int) "size" 3 (Schedule.size s);
  Alcotest.(check bool) "mem" true (Schedule.mem 1 s);
  Alcotest.(check bool) "not mem" false (Schedule.mem 4 s);
  Alcotest.(check (option int)) "find" (Some 3) (Schedule.find 1 s);
  Alcotest.(check (option int)) "find absent" None (Schedule.find 9 s);
  Alcotest.(check (list (pair int int)))
    "sorted by time then id"
    [ (2, 0); (1, 3); (5, 3) ]
    (Schedule.to_list s)

let test_times () =
  let s = Schedule.of_list [ (2, 0); (1, 3); (5, 3) ] in
  Alcotest.(check int) "max time" 3 (Schedule.max_time s);
  Alcotest.(check int) "makespan" 4 (Schedule.makespan s);
  Alcotest.(check (list int)) "at 3" [ 1; 5 ] (Schedule.at 3 s);
  Alcotest.(check (list int)) "at empty step" [] (Schedule.at 1 s)

let test_empty () =
  Alcotest.(check bool) "empty" true (Schedule.is_empty Schedule.empty);
  Alcotest.(check int) "makespan 0" 0 (Schedule.makespan Schedule.empty);
  Alcotest.(check int) "max time -1" (-1) (Schedule.max_time Schedule.empty)

let test_invalid () =
  Alcotest.check_raises "negative time"
    (Invalid_argument "Schedule.add: negative time") (fun () ->
      ignore (Schedule.add 1 (-1) Schedule.empty));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Schedule.add: v1 already scheduled") (fun () ->
      ignore (Schedule.of_list [ (1, 0); (1, 2) ]))

let test_covers () =
  let inst = Helpers.fig1 () in
  let partial = Schedule.of_list [ (2, 0); (3, 1) ] in
  Alcotest.(check bool) "partial does not cover" false
    (Schedule.covers inst partial);
  Alcotest.(check bool) "paper schedule covers" true
    (Schedule.covers inst Helpers.fig1_paper_schedule)

let suite =
  ( "schedule",
    [
      Alcotest.test_case "build and query" `Quick test_build_and_query;
      Alcotest.test_case "time accessors" `Quick test_times;
      Alcotest.test_case "empty schedule" `Quick test_empty;
      Alcotest.test_case "invalid additions" `Quick test_invalid;
      Alcotest.test_case "covers" `Quick test_covers;
    ] )
