open Chronus_sim

let test_sim_time () =
  Alcotest.(check int) "msec" 2_000 (Sim_time.msec 2);
  Alcotest.(check int) "sec" 3_000_000 (Sim_time.sec 3);
  Alcotest.(check (float 1e-9)) "to_sec" 1.5 (Sim_time.to_sec 1_500_000);
  Alcotest.(check int) "of_sec_float" 250_000 (Sim_time.of_sec_float 0.25)

let test_event_queue_order () =
  let q = Event_queue.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  Event_queue.push q ~time:30 (note "c");
  Event_queue.push q ~time:10 (note "a");
  Event_queue.push q ~time:20 (note "b");
  Event_queue.push q ~time:10 (note "a2");
  Alcotest.(check int) "size" 4 (Event_queue.size q);
  Alcotest.(check (option int)) "peek" (Some 10) (Event_queue.peek_time q);
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, thunk) ->
        thunk ();
        drain ()
  in
  drain ();
  (* Same-time events keep insertion order. *)
  Alcotest.(check (list string)) "order" [ "a"; "a2"; "b"; "c" ]
    (List.rev !fired);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_event_queue_random_vs_sort () =
  let q = Event_queue.create () in
  let rng = Chronus_topo.Rng.make 17 in
  let times = List.init 500 (fun _ -> Chronus_topo.Rng.int rng 1000) in
  List.iter (fun t -> Event_queue.push q ~time:t ignore) times;
  let rec pop_all acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (t, _) -> pop_all (t :: acc)
  in
  Alcotest.(check (list int)) "heap sorts" (List.sort compare times)
    (pop_all [])

let test_engine () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 100 (fun () -> log := (100, Engine.now e) :: !log);
  Engine.after e 50 (fun () ->
      log := (50, Engine.now e) :: !log;
      Engine.after e 25 (fun () -> log := (75, Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "clock advances with events"
    [ (50, 50); (75, 75); (100, 100) ]
    (List.rev !log);
  Alcotest.(check int) "final clock" 100 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.at e 10 (fun () -> incr count);
  Engine.at e 90 (fun () -> incr count);
  Engine.run ~until:50 e;
  Alcotest.(check int) "only early event" 1 !count;
  Alcotest.(check int) "clock at until" 50 (Engine.now e);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 2 !count

let test_flow_table () =
  let t = Flow_table.create () in
  let out v = { Flow_table.set_tag = None; forward = Flow_table.Out v } in
  let low =
    Flow_table.install t ~priority:1 ~dst:9 ~tag_match:Flow_table.Any_tag
      (out 2)
  in
  let high =
    Flow_table.install t ~priority:5 ~dst:9 ~tag_match:(Flow_table.Tag 2)
      (out 3)
  in
  Alcotest.(check int) "size" 2 (Flow_table.size t);
  (* Untagged packets cannot match the tag rule. *)
  (match Flow_table.lookup t ~dst:9 ~tag:None with
  | Some r -> Alcotest.(check int) "untagged -> low" low.Flow_table.id r.Flow_table.id
  | None -> Alcotest.fail "expected match");
  (match Flow_table.lookup t ~dst:9 ~tag:(Some 2) with
  | Some r ->
      Alcotest.(check int) "tagged -> high priority" high.Flow_table.id
        r.Flow_table.id
  | None -> Alcotest.fail "expected match");
  Alcotest.(check bool) "wrong dst" true
    (Flow_table.lookup t ~dst:8 ~tag:None = None);
  let changed =
    Flow_table.modify_actions t ~dst:9 ~tag_match:Flow_table.Any_tag (out 7)
  in
  Alcotest.(check int) "modified one" 1 changed;
  (match Flow_table.lookup t ~dst:9 ~tag:None with
  | Some r ->
      Alcotest.(check bool) "action rewritten" true
        (r.Flow_table.action.Flow_table.forward = Flow_table.Out 7)
  | None -> Alcotest.fail "rule vanished");
  let removed = Flow_table.remove t ~dst:9 ~tag_match:(Flow_table.Tag 2) in
  Alcotest.(check int) "removed one" 1 removed;
  Alcotest.(check int) "one left" 1 (Flow_table.size t)

let mini_net () =
  let e = Engine.create () in
  let net = Network.create e in
  Network.add_link net ~capacity_mbps:10. ~delay:(Sim_time.msec 5) 0 1;
  Network.add_link net ~capacity_mbps:10. ~delay:(Sim_time.msec 5) 1 2;
  let out v = { Flow_table.set_tag = None; forward = Flow_table.Out v } in
  ignore
    (Flow_table.install (Network.table net 0) ~priority:1 ~dst:2
       ~tag_match:Flow_table.Any_tag (out 1));
  ignore
    (Flow_table.install (Network.table net 1) ~priority:1 ~dst:2
       ~tag_match:Flow_table.Any_tag (out 2));
  ignore
    (Flow_table.install (Network.table net 2) ~priority:1 ~dst:2
       ~tag_match:Flow_table.Any_tag
       { Flow_table.set_tag = None; forward = Flow_table.To_host });
  (e, net)

let test_network_delivery_and_conservation () =
  let e, net = mini_net () in
  Network.add_source net ~attach:0 ~dst:2 ~rate_mbps:8. ~chunk:(Sim_time.msec 100)
    ~start:0 ~stop:(Sim_time.sec 1) ();
  Engine.run e;
  let stats = Network.stats net in
  (* 8 Mbit/s for 1 s = 1 MB injected; everything delivered. *)
  Alcotest.(check int) "delivered" 1_000_000 stats.Network.delivered_bytes;
  Alcotest.(check int) "no blackhole" 0 stats.Network.dropped_no_rule;
  Alcotest.(check int) "no loops" 0 stats.Network.dropped_loop;
  Alcotest.(check int) "counters match on both links" (Network.link_bytes net (0, 1))
    (Network.link_bytes net (1, 2));
  Alcotest.(check int) "bytes entered equal delivered" 1_000_000
    (Network.link_bytes net (0, 1))

let test_network_blackhole () =
  let e, net = mini_net () in
  ignore (Flow_table.remove (Network.table net 1) ~dst:2 ~tag_match:Flow_table.Any_tag);
  let dropped = ref 0 in
  Network.on_drop net (fun reason ~switch ~bytes ->
      Alcotest.(check bool) "reason no rule" true (reason = Network.No_rule);
      Alcotest.(check int) "at switch 1" 1 switch;
      dropped := !dropped + bytes);
  Network.inject net ~at:0 ~dst:2 ~bytes:500 ();
  Engine.run e;
  Alcotest.(check int) "observer saw the drop" 500 !dropped;
  Alcotest.(check int) "stats agree" 500 (Network.stats net).Network.dropped_no_rule

let test_network_loop_drop () =
  let e = Engine.create () in
  let net = Network.create e in
  Network.add_link net ~capacity_mbps:10. ~delay:(Sim_time.msec 1) 0 1;
  Network.add_link net ~capacity_mbps:10. ~delay:(Sim_time.msec 1) 1 0;
  let out v = { Flow_table.set_tag = None; forward = Flow_table.Out v } in
  ignore
    (Flow_table.install (Network.table net 0) ~priority:1 ~dst:9
       ~tag_match:Flow_table.Any_tag (out 1));
  ignore
    (Flow_table.install (Network.table net 1) ~priority:1 ~dst:9
       ~tag_match:Flow_table.Any_tag (out 0));
  Network.inject net ~at:0 ~dst:9 ~bytes:100 ();
  Engine.run e;
  Alcotest.(check int) "looped traffic dropped" 100
    (Network.stats net).Network.dropped_loop

let test_controller_flow_mods () =
  let e, net = mini_net () in
  let ctrl =
    Controller.create ~latency:(fun ~switch:_ -> Sim_time.msec 10) net
  in
  Controller.send ctrl ~switch:1
    (Controller.Modify
       {
         dst = 2;
         tag_match = Flow_table.Any_tag;
         action = { Flow_table.set_tag = None; forward = Flow_table.Drop };
       });
  Alcotest.(check int) "sent" 1 (Controller.commands_sent ctrl);
  (* Before the command lands, the rule still forwards. *)
  (match Flow_table.lookup (Network.table net 1) ~dst:2 ~tag:None with
  | Some r ->
      Alcotest.(check bool) "not yet applied" true
        (r.Flow_table.action.Flow_table.forward = Flow_table.Out 2)
  | None -> Alcotest.fail "rule present");
  Engine.run e;
  match Flow_table.lookup (Network.table net 1) ~dst:2 ~tag:None with
  | Some r ->
      Alcotest.(check bool) "applied after latency" true
        (r.Flow_table.action.Flow_table.forward = Flow_table.Drop)
  | None -> Alcotest.fail "rule present"

let test_controller_timed_execution () =
  let e, net = mini_net () in
  let ctrl =
    Controller.create ~latency:(fun ~switch:_ -> Sim_time.msec 1) net
  in
  let stamp = Sim_time.sec 2 in
  Controller.send ctrl ~execute_at:stamp ~switch:1
    (Controller.Remove { dst = 2; tag_match = Flow_table.Any_tag });
  Engine.run ~until:(Sim_time.sec 1) e;
  Alcotest.(check int) "still installed at 1s" 1
    (Flow_table.size (Network.table net 1));
  Engine.run e;
  Alcotest.(check int) "gone at its timestamp" 0
    (Flow_table.size (Network.table net 1));
  Alcotest.(check int) "applied exactly at the stamp" stamp (Engine.now e)

let test_controller_barrier () =
  let e, net = mini_net () in
  let ctrl =
    Controller.create ~latency:(fun ~switch:_ -> Sim_time.msec 10) net
  in
  let stamp = Sim_time.sec 1 in
  Controller.send ctrl ~execute_at:stamp ~switch:1
    (Controller.Remove { dst = 2; tag_match = Flow_table.Any_tag });
  let rt = Engine.fiber_runtime e in
  let barrier =
    Chronus_fiber.Fiber.spawn_root rt (fun () ->
        let at = Controller.barrier_wait ctrl ~switch:1 in
        (at, Engine.now e))
  in
  (* With no switches to wait for, the fiber resumes at the current
     instant. *)
  let empty =
    Chronus_fiber.Fiber.spawn_root rt (fun () ->
        Controller.barrier_all_wait ctrl ~switches:[])
  in
  Engine.run e;
  (* The barrier reply waits for the timed command to be applied. *)
  (match Chronus_fiber.Fiber.poll barrier with
  | Some (Ok (reply, resumed)) ->
      Alcotest.(check int) "reply after execution + return leg"
        (stamp + Sim_time.msec 10)
        reply;
      Alcotest.(check int) "fiber resumes at the reply" reply resumed
  | _ -> Alcotest.fail "barrier fiber did not finish");
  match Chronus_fiber.Fiber.poll empty with
  | Some (Ok at) -> Alcotest.(check int) "empty barrier returns now" 0 at
  | _ -> Alcotest.fail "empty barrier fiber did not finish"

let test_monitor_series () =
  let e, net = mini_net () in
  let monitor = Monitor.create ~interval:(Sim_time.sec 1) net in
  Network.add_source net ~attach:0 ~dst:2 ~rate_mbps:4.
    ~chunk:(Sim_time.msec 100) ~start:0 ~stop:(Sim_time.sec 3) ();
  Monitor.stop_after monitor (Sim_time.sec 4);
  Engine.run ~until:(Sim_time.sec 4) e;
  let series = Monitor.series monitor (0, 1) in
  Alcotest.(check bool) "sampled" true (List.length series >= 3);
  let first = List.hd series in
  Alcotest.(check (float 0.01)) "4 Mbit/s measured" 4.0 first.Monitor.mbps;
  Alcotest.(check (float 0.01)) "peak" 4.0 (Monitor.peak monitor (0, 1));
  (match Monitor.busiest_link monitor with
  | Some (_, peak) -> Alcotest.(check (float 0.01)) "busiest peak" 4.0 peak
  | None -> Alcotest.fail "expected a busiest link");
  Alcotest.(check int) "no congested samples" 0
    (List.length (Monitor.congested_samples monitor))

let suite =
  ( "sim",
    [
      Alcotest.test_case "time units" `Quick test_sim_time;
      Alcotest.test_case "event queue ordering" `Quick test_event_queue_order;
      Alcotest.test_case "event queue vs sort" `Quick
        test_event_queue_random_vs_sort;
      Alcotest.test_case "engine" `Quick test_engine;
      Alcotest.test_case "engine run until" `Quick test_engine_until;
      Alcotest.test_case "flow table" `Quick test_flow_table;
      Alcotest.test_case "delivery and byte conservation" `Quick
        test_network_delivery_and_conservation;
      Alcotest.test_case "blackhole accounting" `Quick test_network_blackhole;
      Alcotest.test_case "loop drop" `Quick test_network_loop_drop;
      Alcotest.test_case "controller flow mods" `Quick
        test_controller_flow_mods;
      Alcotest.test_case "timed execution (Time4)" `Quick
        test_controller_timed_execution;
      Alcotest.test_case "barriers wait for applications" `Quick
        test_controller_barrier;
      Alcotest.test_case "bandwidth monitor" `Quick test_monitor_series;
    ] )
