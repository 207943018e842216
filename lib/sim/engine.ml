module Obs = Chronus_obs.Obs

let c_dispatched = Obs.Counter.v "sim.events_dispatched"
let s_run = Obs.Span.v "sim.run"

module Fiber = Chronus_fiber.Fiber

type t = {
  queue : Event_queue.t;
  mutable clock : Sim_time.t;
  mutable dispatched : int;
  mutable fibers : Fiber.runtime option;
}

let create () =
  { queue = Event_queue.create (); clock = 0; dispatched = 0; fibers = None }

let now t = t.clock

let at t time thunk = Event_queue.push t.queue ~time:(max time t.clock) thunk

let after t delay thunk = at t (t.clock + max 0 delay) thunk

let fiber_runtime t =
  match t.fibers with
  | Some rt -> rt
  | None ->
      let rt =
        Fiber.runtime
          ~now:(fun () -> t.clock)
          ~schedule:(fun time thunk -> at t time thunk)
      in
      t.fibers <- Some rt;
      rt

(* Fibers woken by an event run at the same virtual instant, before the
   next event — the microtask discipline that keeps the fiber-based
   control channel digest-identical to the old callback one. *)
let tick t = match t.fibers with Some rt -> Fiber.drain rt | None -> ()

(* The loop itself allocates nothing per event: [next_time]/[run_next]
   avoid the [Some time] / [Some (time, thunk)] boxes [peek_time]/[pop]
   would build, the queue reuses its slab slots, and [tick] returns at
   once when no fiber is ready. What the dispatched thunks and the
   fibers they wake allocate is their own. *)
let run ?until t =
  Obs.Span.with_h s_run @@ fun () ->
  tick t;
  let continue = ref true in
  while !continue do
    if Event_queue.is_empty t.queue then begin
      (match until with Some u when u > t.clock -> t.clock <- u | _ -> ());
      continue := false
    end
    else begin
      let time = Event_queue.next_time t.queue in
      match until with
      | Some u when time > u ->
          t.clock <- u;
          continue := false
      | _ ->
          t.clock <- time;
          Obs.Counter.incr c_dispatched;
          t.dispatched <- t.dispatched + 1;
          ignore (Event_queue.run_next t.queue : bool);
          tick t
    end
  done

let step t =
  tick t;
  if Event_queue.is_empty t.queue then false
  else begin
    t.clock <- Event_queue.next_time t.queue;
    Obs.Counter.incr c_dispatched;
    t.dispatched <- t.dispatched + 1;
    ignore (Event_queue.run_next t.queue : bool);
    tick t;
    true
  end

let pending t = Event_queue.size t.queue

let dispatched t = t.dispatched
