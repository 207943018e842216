module Obs = Chronus_obs.Obs

let c_spawns = Obs.Counter.v "fiber.spawns"
let c_switches = Obs.Counter.v "fiber.context_switches"
let c_cancels = Obs.Counter.v "fiber.cancellations"
let g_mailbox_depth = Obs.Gauge.v "fiber.mailbox_depth"

type time = int

exception Cancelled

let nop () = ()

type runtime = {
  rt_now : unit -> time;
  rt_schedule : time -> (unit -> unit) -> unit;
  mutable next_id : int;
  (* The two-batch ready queue, as parallel growable arrays of fiber
     ids and resume thunks. [cur_*] is being drained from [cur_pos]
     (already sorted by id); [bat_*] collects wakeups in push order
     until the running batch empties, and [bat_sorted] records whether
     they arrived in id order, so a sort runs only when needed. A slot
     forgets its thunk once taken. *)
  mutable cur_ids : int array;
  mutable cur_fns : (unit -> unit) array;
  mutable cur_pos : int;
  mutable cur_len : int;
  mutable bat_ids : int array;
  mutable bat_fns : (unit -> unit) array;
  mutable bat_len : int;
  mutable bat_sorted : bool;
  mutable draining : bool;
  mutable live : int;
  mutable peak_live : int;
  mutable spawned_total : int;
}

let initial_ready = 64

let runtime ~now ~schedule =
  {
    rt_now = now;
    rt_schedule = schedule;
    next_id = 0;
    cur_ids = Array.make initial_ready 0;
    cur_fns = Array.make initial_ready nop;
    cur_pos = 0;
    cur_len = 0;
    bat_ids = Array.make initial_ready 0;
    bat_fns = Array.make initial_ready nop;
    bat_len = 0;
    bat_sorted = true;
    draining = false;
    live = 0;
    peak_live = 0;
    spawned_total = 0;
  }

type stats = { spawned : int; live : int; peak_live : int }

let stats rt =
  { spawned = rt.spawned_total; live = rt.live; peak_live = rt.peak_live }

let enqueue rt id thunk =
  let n = rt.bat_len in
  if n = Array.length rt.bat_ids then begin
    let ids = Array.make (2 * n) 0 and fns = Array.make (2 * n) nop in
    Array.blit rt.bat_ids 0 ids 0 n;
    Array.blit rt.bat_fns 0 fns 0 n;
    rt.bat_ids <- ids;
    rt.bat_fns <- fns
  end;
  if n > 0 && id < rt.bat_ids.(n - 1) then rt.bat_sorted <- false;
  rt.bat_ids.(n) <- id;
  rt.bat_fns.(n) <- thunk;
  rt.bat_len <- n + 1

(* The pending batch becomes the running one; the spent running arrays
   (every slot already cleared) collect the next batch. Stable, so
   several wakeups of one fiber would keep push order. *)
let promote rt =
  let n = rt.bat_len in
  let ids = rt.bat_ids and fns = rt.bat_fns in
  rt.bat_ids <- rt.cur_ids;
  rt.bat_fns <- rt.cur_fns;
  rt.bat_len <- 0;
  if rt.bat_sorted then begin
    rt.cur_ids <- ids;
    rt.cur_fns <- fns
  end
  else begin
    let perm = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare ids.(a) ids.(b)) perm;
    if Array.length rt.bat_ids < n then begin
      rt.bat_ids <- Array.make (Array.length ids) 0;
      rt.bat_fns <- Array.make (Array.length ids) nop
    end;
    (* Permute into the spare arrays, which become the running batch;
       the unsorted ones are cleared and take over as the spare. *)
    let ids' = rt.bat_ids and fns' = rt.bat_fns in
    Array.iteri
      (fun j p ->
        ids'.(j) <- ids.(p);
        fns'.(j) <- fns.(p))
      perm;
    Array.fill fns 0 n nop;
    rt.cur_ids <- ids';
    rt.cur_fns <- fns';
    rt.bat_ids <- ids;
    rt.bat_fns <- fns;
    rt.bat_sorted <- true
  end;
  rt.cur_pos <- 0;
  rt.cur_len <- n

let run_ready rt =
  while
    rt.cur_pos < rt.cur_len
    || (rt.bat_len > 0 && (promote rt; true))
  do
    let i = rt.cur_pos in
    let thunk = rt.cur_fns.(i) in
    rt.cur_fns.(i) <- nop;
    rt.cur_pos <- i + 1;
    Obs.Counter.incr c_switches;
    thunk ()
  done

let drain rt =
  if (not rt.draining) && (rt.cur_pos < rt.cur_len || rt.bat_len > 0) then begin
    rt.draining <- true;
    match run_ready rt with
    | () -> rt.draining <- false
    | exception e ->
        rt.draining <- false;
        raise e
  end

(* A fiber's completion state; {!poll} reads it. *)
type 'a state = Running | Finished of ('a, exn) result

(* A suspension point is identified by its fiber's [gen] stamp at the
   time it parked. Every way out of it — wake, timeout, delivery,
   cancel — checks the stamp and bumps it when it fires, so at most one
   of them resumes the fiber and the others find a stale stamp. *)
and 'a t = {
  fid : int;
  frt : runtime;
  mutable state : 'a state;
  mutable cancel_requested : bool;
  mutable gen : int;
  (* The continuation of the current suspension while no wake has fired
     for it, so that {!cancel} can break it with [Cancelled]. *)
  mutable parked : parked;
  mutable children : packed list;
}

and parked = Not_parked | Parked : ('v, unit) Effect.Deep.continuation -> parked
and packed = Packed : 'a t -> packed

(* Receivers queue FIFO as an intrusive list threaded through
   [w_next]. *)
type 'a waiter =
  | No_waiter
  | Waiter : {
      w_fb : 'b t;
      w_gen : int;
      w_k : ('a option, unit) Effect.Deep.continuation;
      mutable w_next : 'a waiter;
    }
      -> 'a waiter

type 'a mailbox = {
  mb_q : 'a Queue.t;
  mutable mb_head : 'a waiter;
  mutable mb_tail : 'a waiter;
}

(* [Recv] carries an optional deadline and resumes with an option;
   the unbounded [recv] never sees [None]. *)
type _ Effect.t +=
  | Now : time Effect.t
  | Spawn : (unit -> 'a) -> 'a t Effect.t
  | Sleep_until : time -> unit Effect.t
  | Recv : time option * 'a mailbox -> 'a option Effect.t

(* Every resume path funnels here: surface a cancellation requested
   while ready. *)
let resume fb k v =
  if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
  else Effect.Deep.continue k v

(* Park [fb] on [k]; the returned stamp identifies this suspension. *)
let park fb k =
  fb.parked <- Parked k;
  fb.gen

(* End the current suspension (the caller has checked its stamp) and
   make [fb] ready with [thunk]. *)
let wake fb thunk =
  fb.gen <- fb.gen + 1;
  fb.parked <- Not_parked;
  enqueue fb.frt fb.fid thunk

let wake_at deadline fb g k v =
  fb.frt.rt_schedule deadline (fun () ->
      if fb.gen = g then wake fb (fun () -> resume fb k v))

let rec spawn_on : type a. runtime -> packed option -> (unit -> a) -> a t =
 fun rt parent body ->
  let fid = rt.next_id in
  rt.next_id <- fid + 1;
  rt.spawned_total <- rt.spawned_total + 1;
  rt.live <- rt.live + 1;
  if rt.live > rt.peak_live then rt.peak_live <- rt.live;
  Obs.Counter.incr c_spawns;
  let fb =
    {
      fid;
      frt = rt;
      state = Running;
      cancel_requested = false;
      gen = 0;
      parked = Not_parked;
      children = [];
    }
  in
  (match parent with
  | Some (Packed p) -> p.children <- Packed fb :: p.children
  | None -> ());
  enqueue rt fid (fun () -> start fb body);
  fb

and start : type a. a t -> (unit -> a) -> unit =
 fun fb body ->
  if fb.cancel_requested then finish fb (Error Cancelled)
  else
    Effect.Deep.match_with body ()
      {
        Effect.Deep.retc = (fun v -> finish fb (Ok v));
        exnc = (fun e -> finish fb (Error e));
        effc = (fun (type b) (eff : b Effect.t) -> handle fb eff);
      }

and finish : type a. a t -> (a, exn) result -> unit =
 fun fb r ->
  match fb.state with
  | Finished _ -> ()
  | Running ->
      fb.state <- Finished r;
      fb.frt.live <- fb.frt.live - 1

and handle :
      type a b. a t -> b Effect.t -> ((b, unit) Effect.Deep.continuation -> unit) option
    =
 fun fb eff ->
  let rt = fb.frt in
  match eff with
  | Now -> Some (fun k -> Effect.Deep.continue k (rt.rt_now ()))
  | Spawn body ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else Effect.Deep.continue k (spawn_on rt (Some (Packed fb)) body))
  | Sleep_until deadline ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else wake_at deadline fb (park fb k) k ())
  | Recv (deadline, mb) ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else if not (Queue.is_empty mb.mb_q) then
            Effect.Deep.continue k (Some (Queue.pop mb.mb_q))
          else begin
            let g = park fb k in
            let w = Waiter { w_fb = fb; w_gen = g; w_k = k; w_next = No_waiter } in
            (match mb.mb_tail with
            | No_waiter -> mb.mb_head <- w
            | Waiter last -> last.w_next <- w);
            mb.mb_tail <- w;
            match deadline with Some d -> wake_at d fb g k None | None -> ()
          end)
  | _ -> None

let rec cancel : type a. a t -> unit =
 fun fb ->
  match fb.state with
  | Finished _ -> ()
  | Running ->
      if not fb.cancel_requested then begin
        fb.cancel_requested <- true;
        Obs.Counter.incr c_cancels;
        List.iter (fun (Packed c) -> cancel c) fb.children;
        match fb.parked with
        | Parked k -> wake fb (fun () -> Effect.Deep.discontinue k Cancelled)
        | Not_parked -> ()
      end

let spawn_root rt body = spawn_on rt None body
let spawn body = Effect.perform (Spawn body)
let now () = Effect.perform Now
let poll fb = match fb.state with Finished r -> Some r | Running -> None
let sleep_until t = Effect.perform (Sleep_until t)
let sleep d = sleep_until (now () + max 0 d)

module Mailbox = struct
  type 'a t = 'a mailbox

  let create (_ : runtime) =
    { mb_q = Queue.create (); mb_head = No_waiter; mb_tail = No_waiter }

  (* Hand to the longest-waiting receiver that has not already been
     woken by a timeout or cancellation; dead waiters are dropped as
     they are skipped. *)
  let rec send mb v =
    match mb.mb_head with
    | No_waiter ->
        Queue.push v mb.mb_q;
        Obs.Gauge.observe g_mailbox_depth (Queue.length mb.mb_q)
    | Waiter w ->
        mb.mb_head <- w.w_next;
        if w.w_next == No_waiter then mb.mb_tail <- No_waiter;
        if w.w_fb.gen = w.w_gen then
          wake w.w_fb (fun () -> resume w.w_fb w.w_k (Some v))
        else send mb v

  let recv mb =
    match Effect.perform (Recv (None, mb)) with
    | Some v -> v
    | None -> assert false

  let recv_until ~deadline mb = Effect.perform (Recv (Some deadline, mb))

  let try_recv mb =
    if Queue.is_empty mb.mb_q then None else Some (Queue.pop mb.mb_q)
end
