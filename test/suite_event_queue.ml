(* Differential suite: the calendar event queue against the seed binary
   heap model ([Model_event_queue]). On any interleaving of pushes and pops — including adversarial
   time distributions: duplicates, dense clusters, year-wide gaps,
   pushes into the past — both queues must dispatch the same events at
   the same times in the same order (FIFO within a timestamp). *)

open Chronus_sim
module C = Event_queue
module H = Model_event_queue
module Rng = Chronus_topo.Rng
module Obs = Chronus_obs.Obs

(* Times drawn from a mix of regimes so the calendar exercises in-day
   scans, ring wraps, the min-jump over empty years, and resizes. *)
let gen_time rng used =
  match Rng.int rng 6 with
  | 0 -> Rng.int rng 50 (* dense cluster at the origin *)
  | 1 -> 1_000_000 + Rng.int rng 100 (* dense cluster far away *)
  | 2 -> Rng.int rng 1_000_000_000 (* year-wide spread *)
  | 3 -> Rng.int rng 10 * 1_000_000 (* exact bucket-width multiples *)
  | _ -> (
      (* duplicate of an already-used time: tie-break territory *)
      match !used with
      | [] -> Rng.int rng 1_000
      | l -> Rng.pick rng l)

type op = Push | Pop | Run_next | Peek | Next_time

(* Run [ops] operations drawn by [pick_op] on both queues, pushing at
   times drawn by [gen_time], then drain both: total order must match
   to the last event. Returns whether the fired orders agree and the
   peak number of runs (distinct pending timestamps). *)
let differential_run ~ops ~pick_op ~gen_time =
  let c = C.create () and h = H.create () in
  let fired_c = ref [] and fired_h = ref [] in
  let pending = Hashtbl.create 1024 and peak_runs = ref 0 in
  let note_pop time =
    match Hashtbl.find pending time with
    | 1 -> Hashtbl.remove pending time
    | n -> Hashtbl.replace pending time (n - 1)
  in
  let next_id = ref 0 in
  let push time =
    let id = !next_id in
    incr next_id;
    C.push c ~time (fun () -> fired_c := id :: !fired_c);
    H.push h ~time (fun () -> fired_h := id :: !fired_h);
    Hashtbl.replace pending time
      (1 + Option.value ~default:0 (Hashtbl.find_opt pending time));
    peak_runs := max !peak_runs (Hashtbl.length pending)
  in
  let check_pop () =
    match (C.pop c, H.pop h) with
    | None, None -> ()
    | Some (tc, kc), Some (th, kh) ->
        if tc <> th then failwith (Printf.sprintf "pop time %d vs %d" tc th);
        note_pop tc;
        kc ();
        kh ();
        if !fired_c <> !fired_h then failwith "pop order diverged"
    | _ -> failwith "pop emptiness diverged"
  in
  for _ = 1 to ops do
    (match pick_op () with
    | Push -> push (gen_time ())
    | Pop -> check_pop ()
    | Run_next ->
        if not (H.is_empty h) then note_pop (H.next_time h);
        let a = C.run_next c and b = H.run_next h in
        if a <> b then failwith "run_next emptiness diverged";
        if !fired_c <> !fired_h then failwith "run_next order diverged"
    | Peek ->
        if C.peek_time c <> H.peek_time h then failwith "peek_time diverged"
    | Next_time ->
        let a = try Some (C.next_time c) with Not_found -> None in
        let b = try Some (H.next_time h) with Not_found -> None in
        if a <> b then failwith "next_time diverged");
    if C.size c <> H.size h then failwith "size diverged";
    if C.is_empty c <> H.is_empty h then failwith "is_empty diverged"
  done;
  while not (C.is_empty c) do
    check_pop ()
  done;
  if not (H.is_empty h) then failwith "heap still pending after drain";
  (!fired_c = !fired_h, !peak_runs)

let run_seq seed =
  let rng = Rng.derive seed [ 82 ] in
  let used = ref [] in
  let pick_op () =
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 -> Push
    | 5 | 6 -> Pop
    | 7 -> Run_next
    | 8 -> Peek
    | _ -> Next_time
  in
  let gen_time () =
    let time = gen_time rng used in
    used := time :: !used;
    time
  in
  fst (differential_run ~ops:200 ~pick_op ~gen_time)

let differential =
  QCheck.Test.make ~count:80 ~name:"calendar queue = heap on random ops"
    QCheck.small_nat run_seq

(* The long variant: several thousand push-biased ops with duplicate
   timestamps and interleaved pops and peeks. The run count must climb
   past the ring-doubling threshold — more than 512 on the initial
   256-bucket ring — and the final drain then walks back under the
   shrink threshold (fewer runs than 1/8 of the ring), so slot reuse,
   rebuilds and run bookkeeping are all checked against the model. *)
let long_ops = 4_000

let run_long_seq seed =
  let rng = Rng.derive seed [ 84 ] in
  let pick_op () =
    match Rng.int rng 20 with
    | n when n < 13 -> Push
    | 13 | 14 | 15 -> Pop
    | 16 | 17 -> Run_next
    | 18 -> Peek
    | _ -> Next_time
  in
  (* Mostly year-wide spread, so distinct timestamps pile up, with a
     duplicate of an earlier time for four pushes in ten. *)
  let used = Array.make long_ops 0 and nused = ref 0 in
  let gen_time () =
    let time =
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> Rng.int rng 1_000_000_000
      | 4 -> Rng.int rng 50
      | 5 -> Rng.int rng 10 * 1_000_000
      | _ ->
          if !nused = 0 then Rng.int rng 1_000 else used.(Rng.int rng !nused)
    in
    used.(!nused) <- time;
    incr nused;
    time
  in
  let resizes = Obs.Counter.v "sim.queue_resizes" in
  let resizes0 = Obs.Counter.value resizes in
  let agree, peak_runs = differential_run ~ops:long_ops ~pick_op ~gen_time in
  if peak_runs <= 512 then
    failwith (Printf.sprintf "peak of %d runs never doubled the ring" peak_runs);
  (* At least one doubling and, on the drain, one halving. *)
  if Obs.Counter.value resizes - resizes0 < 2 then failwith "ring never resized";
  agree

let long_differential =
  QCheck.Test.make ~count:20
    ~name:"calendar queue = heap on long push-biased sequences"
    QCheck.small_nat run_long_seq

(* FIFO within one timestamp, across enough events to split cells. *)
let test_same_time_fifo () =
  let q = C.create () in
  let fired = ref [] in
  for i = 0 to 199 do
    C.push q ~time:777 (fun () -> fired := i :: !fired)
  done;
  while C.run_next q do
    ()
  done;
  Alcotest.(check (list int)) "insertion order" (List.init 200 Fun.id)
    (List.rev !fired)

(* Enough distinct timestamps to force ring growth, then a full drain
   (which walks the shrink path); order must survive both rebuilds. *)
let test_resize_stress () =
  let q = C.create () in
  let rng = Rng.derive 4242 [ 83 ] in
  let times = List.init 3_000 (fun _ -> Rng.int rng 50_000_000) in
  let fired = ref [] in
  List.iter (fun t -> C.push q ~time:t (fun () -> fired := t :: !fired)) times;
  let popped = ref [] in
  let rec drain () =
    if not (C.is_empty q) then begin
      popped := C.next_time q :: !popped;
      ignore (C.run_next q);
      drain ()
    end
  in
  drain ();
  let sorted = List.sort compare times in
  Alcotest.(check (list int)) "drained in time order" sorted (List.rev !popped);
  Alcotest.(check (list int)) "thunks fired in the same order" sorted
    (List.rev !fired)

(* Events pushed earlier than everything already pending (the engine
   never does this, but the structure must not care). *)
let test_push_into_past () =
  let q = C.create () in
  let fired = ref [] in
  let push t = C.push q ~time:t (fun () -> fired := t :: !fired) in
  push 5_000_000;
  push 9;
  (match C.pop q with
  | Some (t, k) ->
      Alcotest.(check int) "earlier event wins" 9 t;
      k ()
  | None -> Alcotest.fail "queue empty");
  (* Force the scan forward to the far event's day, then rewind it. *)
  Alcotest.(check (option int)) "far event is head" (Some 5_000_000)
    (C.peek_time q);
  push 3;
  Alcotest.(check (option int)) "past push becomes the head" (Some 3)
    (C.peek_time q)

let test_empty_api () =
  let q = C.create () in
  Alcotest.(check bool) "is_empty" true (C.is_empty q);
  Alcotest.(check (option int)) "peek on empty" None (C.peek_time q);
  Alcotest.(check bool) "run_next on empty" false (C.run_next q);
  Alcotest.check_raises "next_time on empty" Not_found (fun () ->
      ignore (C.next_time q))

(* In steady state (a standing backlog, no slab growth, no ring
   rebuild) a push plus a dispatch allocates nothing: the slab reuses
   the slot the dispatch freed. *)
let test_steady_state_allocation () =
  let q = C.create () in
  let fired = ref 0 in
  let thunk () = incr fired in
  for i = 0 to 99 do
    C.push q ~time:(i * 1_000) thunk
  done;
  let step i =
    C.push q ~time:((100 + i) * 1_000) thunk;
    ignore (C.run_next q : bool)
  in
  for i = 0 to 999 do
    step i
  done;
  let before = Gc.minor_words () in
  for i = 1_000 to 10_999 do
    step i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 10,000 push + run_next" 0. words;
  Alcotest.(check int) "every event ran" 11_000 !fired

(* A dispatched thunk is not retained by the queue: its slot forgets
   it, so whatever the closure captured is collectable. *)
let[@inline never] push_watched q ~time collected =
  let payload = ref 0 in
  Gc.finalise (fun _ -> collected := true) payload;
  C.push q ~time (fun () -> incr payload)

let test_popped_thunks_collectable () =
  let q = C.create () in
  let collected = ref false in
  push_watched q ~time:5 collected;
  C.push q ~time:9 ignore;
  Alcotest.(check bool) "ran the watched thunk" true (C.run_next q);
  Gc.full_major ();
  Alcotest.(check bool) "popped thunk collected" true !collected;
  Alcotest.(check int) "the other event still pending" 1 (C.size q)

let suite =
  ( "event-queue",
    [
      QCheck_alcotest.to_alcotest ~long:false differential;
      QCheck_alcotest.to_alcotest ~long:false long_differential;
      Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
      Alcotest.test_case "resize stress keeps order" `Quick test_resize_stress;
      Alcotest.test_case "push into the past" `Quick test_push_into_past;
      Alcotest.test_case "empty-queue API" `Quick test_empty_api;
      Alcotest.test_case "push + run_next allocate nothing" `Quick
        test_steady_state_allocation;
      Alcotest.test_case "popped thunks are collectable" `Quick
        test_popped_thunks_collectable;
    ] )
