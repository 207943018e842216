(* The effects-based cooperative runtime: deterministic replay (same
   spawn order -> bit-identical trace, at any job count), the two-batch
   id-ordered scheduling discipline, mailbox FIFO delivery and timeouts,
   virtual-time sleep, completion read by [poll], structured
   cancellation cascading to children, and the heavy-traffic acceptance
   run — ten thousand live session fibers through one clean timed update
   on a k=16 fat-tree. *)

module Fiber = Chronus_fiber.Fiber
module Engine = Chronus_sim.Engine
module Sim_time = Chronus_sim.Sim_time
module Obs = Chronus_obs.Obs
module E = Chronus_experiments

let dig v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Scheduling: ready fibers run in spawn-id order; the whole
   interleaving replays bit-identically. *)

(* A little concurrent program whose observable trace depends on every
   scheduler decision: fibers sleep, and relay tokens through a shared
   mailbox. *)
let trace_program () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let trace = ref [] in
  let say fmt = Printf.ksprintf (fun s -> trace := s :: !trace) fmt in
  let box = Fiber.Mailbox.create rt in
  for i = 0 to 4 do
    ignore
      (Fiber.spawn_root rt (fun () ->
           say "%d: start at %d" i (Fiber.now ());
           Fiber.sleep 0;
           say "%d: resumed at %d" i (Fiber.now ());
           Fiber.sleep (Sim_time.msec (10 * (i + 1)));
           Fiber.Mailbox.send box i;
           say "%d: sent at %d" i (Fiber.now ()))
        : unit Fiber.t)
  done;
  ignore
    (Fiber.spawn_root rt (fun () ->
         for _ = 0 to 4 do
           let i = Fiber.Mailbox.recv box in
           say "collector: got %d at %d" i (Fiber.now ())
         done)
      : unit Fiber.t);
  Engine.run engine;
  List.rev !trace

let test_trace_deterministic () =
  let a = trace_program () in
  Alcotest.(check bool) "trace is non-trivial" true (List.length a > 15);
  Alcotest.(check string) "bit-identical replay" (dig a)
    (dig (trace_program ()))

let test_ready_order_by_id () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let order = ref [] in
  (* Spawn in reverse announcement order: ids still dictate who runs
     first within the batch. *)
  let fibers =
    List.init 5 (fun i ->
        Fiber.spawn_root rt (fun () -> order := i :: !order))
  in
  ignore (fibers : unit Fiber.t list);
  Fiber.drain rt;
  Alcotest.(check (list int)) "id order" [ 0; 1; 2; 3; 4 ] (List.rev !order)

(* Wakeups that arrive out of id order (here: one event delivering to
   five receivers in reverse) still run in id order. *)
let test_out_of_order_wakes_run_by_id () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let boxes = Array.init 5 (fun _ -> Fiber.Mailbox.create rt) in
  let order = ref [] in
  Array.iteri
    (fun i box ->
      ignore
        (Fiber.spawn_root rt (fun () ->
             let v = Fiber.Mailbox.recv box in
             order := (i, v) :: !order)
          : unit Fiber.t))
    boxes;
  Engine.at engine (Sim_time.msec 5) (fun () ->
      for i = 4 downto 0 do
        Fiber.Mailbox.send boxes.(i) (10 * i)
      done);
  Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "id order" [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40) ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Mailboxes. *)

let test_mailbox_fifo () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let box = Fiber.Mailbox.create rt in
  let got = ref [] in
  List.iter (fun i -> Fiber.Mailbox.send box i) [ 1; 2; 3 ];
  ignore
    (Fiber.spawn_root rt (fun () ->
         for _ = 1 to 3 do
           got := Fiber.Mailbox.recv box :: !got
         done)
      : unit Fiber.t);
  Fiber.drain rt;
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ] (List.rev !got);
  Alcotest.(check (option int)) "try_recv on empty" None
    (Fiber.Mailbox.try_recv box)

let test_mailbox_recv_until () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let box = Fiber.Mailbox.create rt in
  let timed_out = ref None and late = ref None in
  ignore
    (Fiber.spawn_root rt (fun () ->
         timed_out := Some (Fiber.Mailbox.recv_until ~deadline:(Sim_time.msec 5) box);
         (* The message lands at 10 ms, after the first deadline but
            before the second. *)
         late := Some (Fiber.Mailbox.recv_until ~deadline:(Sim_time.msec 50) box))
      : unit Fiber.t);
  ignore
    (Fiber.spawn_root rt (fun () ->
         Fiber.sleep_until (Sim_time.msec 10);
         Fiber.Mailbox.send box 42)
      : unit Fiber.t);
  Engine.run engine;
  Alcotest.(check (option (option int))) "deadline passes empty-handed"
    (Some None) !timed_out;
  Alcotest.(check (option (option int))) "message beats second deadline"
    (Some (Some 42)) !late

(* ------------------------------------------------------------------ *)
(* Virtual time. *)

let test_sleep () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let wakes = ref [] in
  ignore
    (Fiber.spawn_root rt (fun () ->
         Fiber.sleep (Sim_time.msec 7);
         wakes := Fiber.now () :: !wakes;
         (* A past deadline resumes at the current instant. *)
         Fiber.sleep_until (Sim_time.msec 1);
         wakes := Fiber.now () :: !wakes;
         Fiber.sleep (-5);
         wakes := Fiber.now () :: !wakes)
      : unit Fiber.t);
  Engine.run engine;
  Alcotest.(check (list int)) "sleeps wake at their virtual instants"
    [ Sim_time.msec 7; Sim_time.msec 7; Sim_time.msec 7 ]
    (List.rev !wakes)

(* ------------------------------------------------------------------ *)
(* Completion, and structured cancellation. *)

(* There is no join: a fiber that needs another's result receives it
   on a mailbox, and code outside fiber context polls after the
   drain. *)
let test_mailbox_handoff_and_poll () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let box = Fiber.Mailbox.create rt in
  let child =
    Fiber.spawn_root rt (fun () ->
        Fiber.sleep (Sim_time.msec 3);
        Fiber.Mailbox.send box 42;
        42)
  in
  Alcotest.(check bool) "unfinished fiber polls None" true
    (Fiber.poll child = None);
  let received = ref None in
  ignore
    (Fiber.spawn_root rt (fun () -> received := Some (Fiber.Mailbox.recv box))
      : unit Fiber.t);
  Engine.run engine;
  Alcotest.(check (option int)) "the waiter receives the value" (Some 42)
    !received;
  Alcotest.(check bool) "finished fiber polls its result" true
    (Fiber.poll child = Some (Ok 42))

let test_cancellation_cascades () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let before = Obs.snapshot () in
  let child_state = ref `Running and parent_state = ref `Running in
  let parent =
    Fiber.spawn_root rt (fun () ->
        ignore
          (Fiber.spawn (fun () ->
               match Fiber.sleep (Sim_time.sec 10) with
               | () -> child_state := `Finished
               | exception Fiber.Cancelled ->
                   child_state := `Cancelled;
                   raise Fiber.Cancelled)
            : unit Fiber.t);
        match Fiber.sleep (Sim_time.sec 10) with
        | () -> parent_state := `Finished
        | exception Fiber.Cancelled ->
            parent_state := `Cancelled;
            raise Fiber.Cancelled)
  in
  Fiber.drain rt;
  Fiber.cancel parent;
  Fiber.drain rt;
  let state = Alcotest.testable Fmt.(any "state") ( = ) in
  Alcotest.check state "parent saw Cancelled at its sleep" `Cancelled
    !parent_state;
  Alcotest.check state "cancellation cascaded to the child" `Cancelled
    !child_state;
  Alcotest.(check bool) "the fiber resolved to Cancelled" true
    (match Fiber.poll parent with
    | Some (Error Fiber.Cancelled) -> true
    | _ -> false);
  let cancelled =
    match
      List.assoc_opt "fiber.cancellations" (Obs.diff before (Obs.snapshot ()))
    with
    | Some (Obs.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check bool) "fiber.cancellations counted both" true (cancelled >= 2)

(* ------------------------------------------------------------------ *)
(* Wake races: two ways out of one suspension fall on the same instant,
   or a cancel lands between a wake and the resume. Exactly one of them
   resumes the fiber, and the event order decides which. *)

let spawn_unit rt f = ignore (Fiber.spawn_root rt f : unit Fiber.t)

(* A [recv_until] whose deadline is the instant of the [send]: the
   spawn order fixes which of the two timers was pushed first. *)
let recv_deadline_race ~sender_first =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let box = Fiber.Mailbox.create rt in
  let at = Sim_time.msec 10 in
  let resumes = ref [] in
  let receiver () =
    resumes := Fiber.Mailbox.recv_until ~deadline:at box :: !resumes
  in
  let sender () =
    Fiber.sleep_until at;
    Fiber.Mailbox.send box 42
  in
  if sender_first then (spawn_unit rt sender; spawn_unit rt receiver)
  else (spawn_unit rt receiver; spawn_unit rt sender);
  Engine.run engine;
  (!resumes, Fiber.Mailbox.try_recv box)

let test_recv_until_deadline_at_send () =
  let outcome = Alcotest.(pair (list (option int)) (option int)) in
  Alcotest.check outcome "deadline first: times out, the message stays queued"
    ([ None ], Some 42)
    (recv_deadline_race ~sender_first:false);
  Alcotest.check outcome "send first: delivered, the deadline is stale"
    ([ Some 42 ], None)
    (recv_deadline_race ~sender_first:true)

let record_outcome resumes f =
  match f () with
  | () -> resumes := "resumed" :: !resumes
  | exception Fiber.Cancelled ->
      resumes := "cancelled" :: !resumes;
      raise Fiber.Cancelled

let test_cancel_between_wake_and_resume () =
  (* A delivery and then a cancel inside one event: the receiver is
     ready with the value when the cancel lands. *)
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let box = Fiber.Mailbox.create rt in
  let resumes = ref [] in
  let fb =
    Fiber.spawn_root rt (fun () ->
        record_outcome resumes (fun () -> ignore (Fiber.Mailbox.recv box : int)))
  in
  Engine.at engine (Sim_time.msec 5) (fun () ->
      Fiber.Mailbox.send box 7;
      Fiber.cancel fb);
  Engine.run engine;
  Alcotest.(check (list string)) "receiver resumed once, cancelled"
    [ "cancelled" ] !resumes;
  Alcotest.(check bool) "receiver ended Cancelled" true
    (Fiber.poll fb = Some (Error Fiber.Cancelled));
  Alcotest.(check (option int)) "the delivered value is consumed" None
    (Fiber.Mailbox.try_recv box);
  (* A timer wake and then a cancel before any drain, on a hand-rolled
     loop that fires the timer itself. *)
  let clock = ref 0 and timers = Queue.create () in
  let rt =
    Fiber.runtime ~now:(fun () -> !clock) ~schedule:(fun t k ->
        Queue.push (t, k) timers)
  in
  let resumes = ref [] in
  let fb =
    Fiber.spawn_root rt (fun () ->
        record_outcome resumes (fun () -> Fiber.sleep 5))
  in
  Fiber.drain rt;
  let t, wake = Queue.pop timers in
  clock := t;
  wake ();
  Fiber.cancel fb;
  Fiber.drain rt;
  Alcotest.(check (list string)) "sleeper resumed once, cancelled"
    [ "cancelled" ] !resumes;
  Alcotest.(check bool) "no timer left behind" true (Queue.is_empty timers)

(* ------------------------------------------------------------------ *)
(* Allocation and retention on the event path. *)

(* One fiber's sleep/wake cycle: the timer thunk, the continuation and
   the resume thunk, and nothing per cycle that grows. *)
let sleep_cycle_words = 64.

let test_sleep_cycle_allocation () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let cycles = 10_000 in
  spawn_unit rt (fun () ->
      for _ = 1 to cycles do
        Fiber.sleep (Sim_time.msec 1)
      done);
  Fiber.drain rt;
  let before = Gc.minor_words () in
  Engine.run engine;
  let per_cycle = (Gc.minor_words () -. before) /. float_of_int cycles in
  Printf.printf "minor words per sleep/wake cycle: %.1f\n" per_cycle;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per cycle <= %.0f" per_cycle sleep_cycle_words)
    true
    (per_cycle <= sleep_cycle_words)

(* Neither the event queue nor the ready queue keeps a finished fiber
   alive. *)
let[@inline never] spawn_watched rt collected =
  let fb =
    Fiber.spawn_root rt (fun () ->
        Fiber.sleep (Sim_time.msec 5);
        Fiber.sleep 0;
        1)
  in
  Gc.finalise (fun _ -> collected := true) fb

let test_finished_fibers_collectable () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let collected = ref false in
  spawn_watched rt collected;
  Engine.run engine;
  Gc.full_major ();
  Alcotest.(check bool) "finished fiber collected" true !collected;
  (* The engine and its runtime outlive the collection above. *)
  Alcotest.(check int) "the fiber finished" 0 (Fiber.stats rt).Fiber.live;
  Alcotest.(check int) "nothing pending" 0 (Engine.pending engine)

(* ------------------------------------------------------------------ *)
(* The heavy-traffic figure: the ISSUE's acceptance bar (>= 10,000
   concurrent fibers through one clean timed update on a k=16 fat-tree)
   and jobs-parity of every deterministic column. *)

let deterministic (r : E.Fig_conns.row) =
  ( r.E.Fig_conns.conns,
    r.E.Fig_conns.switches,
    r.E.Fig_conns.peak_fibers,
    r.E.Fig_conns.pings,
    r.E.Fig_conns.rtt_p50_ms,
    r.E.Fig_conns.rtt_p99_ms,
    r.E.Fig_conns.update_clean,
    r.E.Fig_conns.update_span_s,
    r.E.Fig_conns.events )

let test_conns_ten_thousand () =
  match E.Fig_conns.run ~jobs:1 ~scale:E.Scale.quick ~conns:[ 10_000 ] () with
  | [ r ] ->
      Alcotest.(check bool) "k=16 fat-tree" true (r.E.Fig_conns.switches = 320);
      Alcotest.(check bool) "ten thousand concurrent fibers" true
        (r.E.Fig_conns.peak_fibers >= 10_000);
      Alcotest.(check bool) "the timed update completed cleanly" true
        r.E.Fig_conns.update_clean;
      Alcotest.(check bool) "sessions actually pinged" true
        (r.E.Fig_conns.pings > 10_000)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_conns_jobs_parity () =
  let run jobs = E.Fig_conns.run ~jobs ~scale:E.Scale.tiny () in
  Alcotest.(check string) "rows identical at jobs=1 and jobs=3"
    (dig (List.map deterministic (run 1)))
    (dig (List.map deterministic (run 3)))

let suite =
  ( "fiber",
    [
      Alcotest.test_case "concurrent trace replays bit-identically" `Quick
        test_trace_deterministic;
      Alcotest.test_case "ready fibers run in spawn-id order" `Quick
        test_ready_order_by_id;
      Alcotest.test_case "out-of-order wakes run in id order" `Quick
        test_out_of_order_wakes_run_by_id;
      Alcotest.test_case "mailbox is FIFO; try_recv" `Quick
        test_mailbox_fifo;
      Alcotest.test_case "recv_until times out and recovers" `Quick
        test_mailbox_recv_until;
      Alcotest.test_case "sleep on virtual time" `Quick test_sleep;
      Alcotest.test_case "mailbox hand-off, then poll" `Quick
        test_mailbox_handoff_and_poll;
      Alcotest.test_case "cancellation cascades to children" `Quick
        test_cancellation_cascades;
      Alcotest.test_case "recv_until deadline at the send instant" `Quick
        test_recv_until_deadline_at_send;
      Alcotest.test_case "cancel between wake and resume" `Quick
        test_cancel_between_wake_and_resume;
      Alcotest.test_case "sleep/wake cycle allocation bound" `Quick
        test_sleep_cycle_allocation;
      Alcotest.test_case "finished fibers are collectable" `Quick
        test_finished_fibers_collectable;
      Alcotest.test_case "conns: 10k fibers, clean k=16 update" `Slow
        test_conns_ten_thousand;
      Alcotest.test_case "conns rows independent of job count" `Slow
        test_conns_jobs_parity;
    ] )
