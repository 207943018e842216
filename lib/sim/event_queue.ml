module Obs = Chronus_obs.Obs

(* High-water mark of the queue size: how deep a simulation's event
   backlog gets. Observed on every push; reading the gauge never
   influences the simulation. *)
let g_high_water = Obs.Gauge.v "sim.queue_high_water"

(* How often the calendar queue rebuilt its bucket ring to track the
   event-density of the workload. *)
let c_resizes = Obs.Counter.v "sim.queue_resizes"

(* A calendar queue (Brown 1988): a ring of buckets, each covering one
   "day" of [width] microseconds; bucket = day mod ring size. Buckets
   hold ascending-sorted cells, one per distinct timestamp, and each
   cell queues its thunks FIFO — which reproduces a binary heap's
   (time, seq) order exactly: two events at the same instant land in
   the same cell and pop in insertion order, and distinct instants pop
   in time order. Push and pop are O(1) amortized when the ring tracks
   the event density; [rebuild] re-derives [width] from the live spread
   whenever the cell count outgrows (or far undershoots) the ring. *)
type cell = { c_time : int; q : (unit -> unit) Queue.t }

type t = {
  mutable buckets : cell list array;
  mutable mask : int;  (** ring size - 1; ring size is a power of two *)
  mutable width : int;  (** day width in microseconds, >= 1 *)
  mutable size : int;  (** pending thunks *)
  mutable ncells : int;  (** distinct (bucket, timestamp) cells *)
  mutable cur_day : int;  (** scan position; no cell lies earlier *)
}

let initial_buckets = 256
let max_buckets = 65536
let initial_width = 1_000 (* 1 ms *)

let create () =
  {
    buckets = Array.make initial_buckets [];
    mask = initial_buckets - 1;
    width = initial_width;
    size = 0;
    ncells = 0;
    cur_day = 0;
  }

let is_empty t = t.size = 0

let size t = t.size

(* Re-bucket every cell into a ring of [nbuckets'], re-deriving the
   day width from the live spread so that cells stay roughly one per
   bucket-day. Deterministic: depends only on queue contents. *)
let rebuild t nbuckets' =
  Obs.Counter.incr c_resizes;
  let cells = ref [] in
  Array.iter (List.iter (fun c -> cells := c :: !cells)) t.buckets;
  let asc = List.sort (fun a b -> compare a.c_time b.c_time) !cells in
  match asc with
  | [] ->
      t.buckets <- Array.make nbuckets' [];
      t.mask <- nbuckets' - 1;
      t.cur_day <- 0
  | first :: _ ->
      let tmin = first.c_time in
      let tmax = List.fold_left (fun _ c -> c.c_time) tmin asc in
      let n = List.length asc in
      let width = max 1 (((tmax - tmin) / n) + 1) in
      let buckets = Array.make nbuckets' [] in
      let mask = nbuckets' - 1 in
      (* Iterate descending so each bucket list ends up ascending. *)
      List.iter
        (fun c ->
          let i = c.c_time / width land mask in
          buckets.(i) <- c :: buckets.(i))
        (List.rev asc);
      t.buckets <- buckets;
      t.mask <- mask;
      t.width <- width;
      t.cur_day <- tmin / width

let push t ~time thunk =
  let idx = time / t.width land t.mask in
  let rec add = function
    | [] ->
        t.ncells <- t.ncells + 1;
        let q = Queue.create () in
        Queue.add thunk q;
        [ { c_time = time; q } ]
    | c :: rest as l ->
        if c.c_time = time then begin
          Queue.add thunk c.q;
          l
        end
        else if c.c_time < time then c :: add rest
        else begin
          t.ncells <- t.ncells + 1;
          let q = Queue.create () in
          Queue.add thunk q;
          { c_time = time; q } :: l
        end
  in
  t.buckets.(idx) <- add t.buckets.(idx);
  t.size <- t.size + 1;
  Obs.Gauge.observe g_high_water t.size;
  let day = time / t.width in
  if day < t.cur_day then t.cur_day <- day;
  let nbuckets = t.mask + 1 in
  if t.ncells > 2 * nbuckets && nbuckets < max_buckets then
    rebuild t (2 * nbuckets)

(* Advance the scan to the day holding the earliest cell and return
   its bucket index; -1 when empty. Invariant: no cell lies before
   day [t.cur_day] (pushes into the past rewind it). *)
let locate t =
  if t.size = 0 then -1
  else begin
    let nbuckets = t.mask + 1 in
    let found = ref (-1) in
    let steps = ref 0 in
    while !found < 0 do
      if !steps >= nbuckets then begin
        (* Full cycle without a hit: every cell lies a year or more
           ahead. Jump straight to the globally earliest head — heads
           are bucket minima, and two buckets can never share a head
           timestamp, so the minimum is unique. *)
        let best = ref max_int and best_idx = ref (-1) in
        Array.iteri
          (fun i b ->
            match b with
            | c :: _ when c.c_time < !best ->
                best := c.c_time;
                best_idx := i
            | _ -> ())
          t.buckets;
        t.cur_day <- !best / t.width;
        found := !best_idx
      end
      else begin
        let idx = t.cur_day land t.mask in
        match t.buckets.(idx) with
        | c :: _ when c.c_time / t.width = t.cur_day -> found := idx
        | _ ->
            t.cur_day <- t.cur_day + 1;
            incr steps
      end
    done;
    !found
  end

(* Dequeue the head thunk of the earliest cell at [idx]; the caller
   has already located it. Allocation-free on the fast path. *)
let take_thunk t idx =
  match t.buckets.(idx) with
  | [] -> assert false
  | c :: rest ->
      let thunk = Queue.pop c.q in
      if Queue.is_empty c.q then begin
        t.buckets.(idx) <- rest;
        t.ncells <- t.ncells - 1
      end;
      t.size <- t.size - 1;
      let nbuckets = t.mask + 1 in
      if nbuckets > initial_buckets && t.ncells * 8 < nbuckets then
        rebuild t (nbuckets / 2);
      thunk

let head_time t idx =
  match t.buckets.(idx) with c :: _ -> c.c_time | [] -> assert false

let pop t =
  match locate t with
  | -1 -> None
  | idx ->
      let time = head_time t idx in
      Some (time, take_thunk t idx)

let peek_time t =
  match locate t with -1 -> None | idx -> Some (head_time t idx)

let next_time t =
  match locate t with -1 -> raise Not_found | idx -> head_time t idx

let run_next t =
  match locate t with
  | -1 -> false
  | idx ->
      let thunk = take_thunk t idx in
      thunk ();
      true
