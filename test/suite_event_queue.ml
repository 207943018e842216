(* Differential suite: the calendar event queue against the seed binary
   heap model ([Model_event_queue]). On any interleaving of pushes and pops — including adversarial
   time distributions: duplicates, dense clusters, year-wide gaps,
   pushes into the past — both queues must dispatch the same events at
   the same times in the same order (FIFO within a timestamp). *)

open Chronus_sim
module C = Event_queue
module H = Model_event_queue
module Rng = Chronus_topo.Rng

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

let run_seq seed =
  let rng = Rng.derive seed [ 82 ] in
  let c = C.create () and h = H.create () in
  let fired_c = ref [] and fired_h = ref [] in
  let used = ref [] in
  let next_id = ref 0 in
  let push time =
    let id = !next_id in
    incr next_id;
    used := time :: !used;
    C.push c ~time (fun () -> fired_c := id :: !fired_c);
    H.push h ~time (fun () -> fired_h := id :: !fired_h)
  in
  let check_pop () =
    match (C.pop c, H.pop h) with
    | None, None -> ()
    | Some (tc, kc), Some (th, kh) ->
        if tc <> th then failwith (Printf.sprintf "pop time %d vs %d" tc th);
        kc ();
        kh ();
        if !fired_c <> !fired_h then failwith "pop order diverged"
    | _ -> failwith "pop emptiness diverged"
  in
  for _ = 1 to 200 do
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 -> push (gen_time rng used)
    | 5 | 6 -> check_pop ()
    | 7 ->
        let a = C.run_next c and b = H.run_next h in
        if a <> b then failwith "run_next emptiness diverged";
        if !fired_c <> !fired_h then failwith "run_next order diverged"
    | 8 ->
        if C.peek_time c <> H.peek_time h then failwith "peek_time diverged"
    | _ ->
        let a = try Some (C.next_time c) with Not_found -> None in
        let b = try Some (H.next_time h) with Not_found -> None in
        if a <> b then failwith "next_time diverged");
    if C.size c <> H.size h then failwith "size diverged";
    if C.is_empty c <> H.is_empty h then failwith "is_empty diverged"
  done;
  (* Drain completely: total order must match to the last event. *)
  while not (C.is_empty c) do
    check_pop ()
  done;
  if not (H.is_empty h) then failwith "heap still pending after drain";
  !fired_c = !fired_h

let differential =
  QCheck.Test.make ~count:80 ~name:"calendar queue = heap on random ops"
    QCheck.small_nat run_seq

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

let suite =
  ( "event-queue",
    [
      QCheck_alcotest.to_alcotest ~long:false differential;
      Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
      Alcotest.test_case "resize stress keeps order" `Quick test_resize_stress;
      Alcotest.test_case "push into the past" `Quick test_push_into_past;
      Alcotest.test_case "empty-queue API" `Quick test_empty_api;
    ] )
