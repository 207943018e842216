open Chronus_flow

let test_fig1_shape () =
  let inst = Helpers.fig1 () in
  Alcotest.(check int) "source" 1 (Instance.source inst);
  Alcotest.(check int) "destination" 6 (Instance.destination inst);
  Alcotest.(check int) "five updates" 5 (Instance.update_count inst);
  Alcotest.(check (list int))
    "update switches" [ 1; 2; 3; 4; 5 ]
    (Instance.switches_to_update inst);
  Alcotest.(check bool) "not trivial" false (Instance.is_trivial inst);
  Alcotest.(check int) "init delay" 5 (Instance.init_delay inst);
  Alcotest.(check int) "fin delay" 5 (Instance.fin_delay inst)

let test_next_hops () =
  let inst = Helpers.fig1 () in
  Alcotest.(check (option int)) "old next of v2" (Some 3)
    (Instance.old_next inst 2);
  Alcotest.(check (option int)) "new next of v2" (Some 6)
    (Instance.new_next inst 2);
  Alcotest.(check (option int)) "old next of dst" None
    (Instance.old_next inst 6);
  Alcotest.(check (option int)) "old prev of v2" (Some 1)
    (Instance.old_prev inst 2);
  Alcotest.(check (option int)) "off-path" None (Instance.old_next inst 42)

let test_update_kinds () =
  (* 0-1-2-3 moves to 0-4-3: v1, v2 deleted; v4 added; v0 modified. *)
  let g =
    Helpers.unit_graph_of [ (0, 1); (1, 2); (2, 3); (0, 4); (4, 3) ]
  in
  let inst =
    Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1; 2; 3 ]
      ~p_fin:[ 0; 4; 3 ]
  in
  let kinds =
    List.map
      (fun (u : Instance.update) -> (u.Instance.switch, u.Instance.kind))
      (Instance.updates inst)
  in
  Alcotest.(check bool)
    "kinds" true
    (kinds
    = [
        (0, Instance.Modify);
        (1, Instance.Delete);
        (2, Instance.Delete);
        (4, Instance.Add);
      ])

let test_trivial () =
  let g = Helpers.unit_graph_of [ (0, 1); (1, 2) ] in
  let p = [ 0; 1; 2 ] in
  let inst = Instance.create ~graph:g ~demand:1 ~p_init:p ~p_fin:p in
  Alcotest.(check bool) "trivial" true (Instance.is_trivial inst);
  Alcotest.(check int) "no updates" 0 (Instance.update_count inst)

let ill_formed name f =
  match f () with
  | exception Instance.Ill_formed _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Ill_formed")

let test_validation () =
  let g = Helpers.unit_graph_of [ (0, 1); (1, 2); (0, 2) ] in
  ill_formed "different destinations" (fun () ->
      Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1 ] ~p_fin:[ 0; 2 ]);
  ill_formed "empty path" (fun () ->
      Instance.create ~graph:g ~demand:1 ~p_init:[] ~p_fin:[ 0; 2 ]);
  ill_formed "missing link" (fun () ->
      Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 2 ] ~p_fin:[ 0; 1; 2 ]
      |> fun _ ->
      Instance.create ~graph:g ~demand:1 ~p_init:[ 2; 0 ] ~p_fin:[ 2; 0 ]);
  ill_formed "zero demand" (fun () ->
      Instance.create ~graph:g ~demand:0 ~p_init:[ 0; 2 ] ~p_fin:[ 0; 2 ]);
  ill_formed "capacity below demand" (fun () ->
      Instance.create ~graph:g ~demand:7 ~p_init:[ 0; 2 ] ~p_fin:[ 0; 2 ]);
  ill_formed "repeated switch" (fun () ->
      Instance.create ~graph:g ~demand:1 ~p_init:[ 0; 1; 2 ]
        ~p_fin:[ 0; 1; 0; 2 ])

let suite =
  ( "instance",
    [
      Alcotest.test_case "worked example shape" `Quick test_fig1_shape;
      Alcotest.test_case "next hops" `Quick test_next_hops;
      Alcotest.test_case "update kinds" `Quick test_update_kinds;
      Alcotest.test_case "trivial instance" `Quick test_trivial;
      Alcotest.test_case "ill-formed instances rejected" `Quick
        test_validation;
    ] )
