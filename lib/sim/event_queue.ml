module Obs = Chronus_obs.Obs

(* High-water mark of the queue size: how deep a simulation's event
   backlog gets. Observed on every push; reading the gauge never
   influences the simulation. *)
let g_high_water = Obs.Gauge.v "sim.queue_high_water"

(* How often the calendar queue rebuilt its bucket ring to track the
   event-density of the workload. *)
let c_resizes = Obs.Counter.v "sim.queue_resizes"

(* A calendar queue (Brown 1988): a ring of buckets, each covering one
   "day" of [width] microseconds; bucket = day mod ring size.

   Events live in a slab of parallel arrays indexed by slot, and a
   free list threads the unused slots through [next]. Each bucket is an
   index-linked list of its events sorted by time and FIFO within a
   timestamp — which reproduces a binary heap's (time, seq) order
   exactly: two events at the same instant land in the same bucket and
   pop in insertion order, and distinct instants pop in time order. The
   events sharing one timestamp form a run; the run's first event keeps
   the slot of its last in [last], so a push skips whole runs and
   appends to one in O(1). Push and pop are O(1) amortized when the
   ring tracks the event density; [rebuild] re-derives [width] from the
   live spread whenever the run count outgrows (or far undershoots) the
   ring. Only slab growth and [rebuild] allocate. *)
type t = {
  mutable time : int array;  (** slot -> timestamp *)
  mutable thunk : (unit -> unit) array;  (** slot -> thunk; [nop] when free *)
  mutable next : int array;
      (** slot -> next slot of its bucket list, or of the free list; -1
          ends either *)
  mutable last : int array;
      (** run head slot -> last slot of its run; stale elsewhere *)
  mutable free : int;  (** head of the free list, -1 when the slab is full *)
  mutable buckets : int array;  (** bucket -> head slot, -1 when empty *)
  mutable mask : int;  (** ring size - 1; ring size is a power of two *)
  mutable width : int;  (** day width in microseconds, >= 1 *)
  mutable size : int;  (** pending thunks *)
  mutable nruns : int;  (** runs: distinct pending timestamps *)
  mutable cur_day : int;  (** scan position; no event lies earlier *)
}

let initial_buckets = 256
let max_buckets = 65536
let initial_width = 1_000 (* 1 ms *)
let initial_slots = 256

let nop () = ()

(* Chain slots [lo, hi) into a free list ending in [tail]. *)
let link_free next lo hi tail =
  for i = lo to hi - 2 do
    next.(i) <- i + 1
  done;
  next.(hi - 1) <- tail

let create () =
  let next = Array.make initial_slots (-1) in
  link_free next 0 initial_slots (-1);
  {
    time = Array.make initial_slots 0;
    thunk = Array.make initial_slots nop;
    next;
    last = Array.make initial_slots (-1);
    free = 0;
    buckets = Array.make initial_buckets (-1);
    mask = initial_buckets - 1;
    width = initial_width;
    size = 0;
    nruns = 0;
    cur_day = 0;
  }

let is_empty t = t.size = 0

let size t = t.size

let grow t =
  let n = Array.length t.time in
  let n' = 2 * n in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.time <- extend t.time 0;
  t.thunk <- extend t.thunk nop;
  t.next <- extend t.next (-1);
  t.last <- extend t.last (-1);
  link_free t.next n n' t.free;
  t.free <- n

(* Re-bucket every event into a ring of [nbuckets'], re-deriving the
   day width from the live spread so that runs stay roughly one per
   bucket-day. Deterministic: depends only on queue contents. *)
let rebuild t nbuckets' =
  Obs.Counter.incr c_resizes;
  (* Gather the slots bucket by bucket; a stable sort by time then
     keeps every run in FIFO order, since a run never spans buckets. *)
  let slots = Array.make t.size 0 in
  let n = ref 0 in
  Array.iter
    (fun head ->
      let i = ref head in
      while !i >= 0 do
        slots.(!n) <- !i;
        incr n;
        i := t.next.(!i)
      done)
    t.buckets;
  Array.stable_sort (fun a b -> Int.compare t.time.(a) t.time.(b)) slots;
  let buckets = Array.make nbuckets' (-1) in
  let mask = nbuckets' - 1 in
  t.buckets <- buckets;
  t.mask <- mask;
  if t.size = 0 then t.cur_day <- 0
  else begin
    let tmin = t.time.(slots.(0)) and tmax = t.time.(slots.(t.size - 1)) in
    let width = max 1 (((tmax - tmin) / t.nruns) + 1) in
    (* Iterate descending, prepending, so each bucket list ends up
       ascending and each run keeps insertion order. *)
    for j = t.size - 1 downto 0 do
      let i = slots.(j) in
      let b = t.time.(i) / width land mask in
      let h = buckets.(b) in
      t.last.(i) <- (if h >= 0 && t.time.(h) = t.time.(i) then t.last.(h) else i);
      t.next.(i) <- h;
      buckets.(b) <- i
    done;
    t.width <- width;
    t.cur_day <- tmin / width
  end

let push t ~time thunk =
  if t.free < 0 then grow t;
  let i = t.free in
  t.free <- t.next.(i);
  t.time.(i) <- time;
  t.thunk.(i) <- thunk;
  let b = time / t.width land t.mask in
  let h = t.buckets.(b) in
  if h < 0 || time < t.time.(h) then begin
    (* A new run at the front of the bucket. *)
    t.next.(i) <- h;
    t.last.(i) <- i;
    t.buckets.(b) <- i;
    t.nruns <- t.nruns + 1
  end
  else begin
    (* Walk run heads: [r] starts a run no later than [time]. *)
    let r = ref h and placed = ref false in
    while not !placed do
      let tail = t.last.(!r) in
      let after = t.next.(tail) in
      if t.time.(!r) = time then begin
        t.next.(i) <- after;
        t.next.(tail) <- i;
        t.last.(!r) <- i;
        placed := true
      end
      else if after < 0 || t.time.(after) > time then begin
        t.next.(i) <- after;
        t.next.(tail) <- i;
        t.last.(i) <- i;
        t.nruns <- t.nruns + 1;
        placed := true
      end
      else r := after
    done
  end;
  t.size <- t.size + 1;
  Obs.Gauge.observe g_high_water t.size;
  let day = time / t.width in
  if day < t.cur_day then t.cur_day <- day;
  let nbuckets = t.mask + 1 in
  if t.nruns > 2 * nbuckets && nbuckets < max_buckets then
    rebuild t (2 * nbuckets)

(* Advance the scan to the day holding the earliest event and return
   its bucket index; -1 when empty. Invariant: no event lies before
   day [t.cur_day] (pushes into the past rewind it). *)
let locate t =
  if t.size = 0 then -1
  else begin
    let nbuckets = t.mask + 1 in
    let found = ref (-1) in
    let steps = ref 0 in
    while !found < 0 do
      if !steps >= nbuckets then begin
        (* Full cycle without a hit: every event lies a year or more
           ahead. Jump straight to the globally earliest head — heads
           are bucket minima, and two buckets can never share a head
           timestamp, so the minimum is unique. *)
        let best = ref max_int and best_idx = ref (-1) in
        for b = 0 to t.mask do
          let h = t.buckets.(b) in
          if h >= 0 && t.time.(h) < !best then begin
            best := t.time.(h);
            best_idx := b
          end
        done;
        t.cur_day <- !best / t.width;
        found := !best_idx
      end
      else begin
        let b = t.cur_day land t.mask in
        let h = t.buckets.(b) in
        if h >= 0 && t.time.(h) / t.width = t.cur_day then found := b
        else begin
          t.cur_day <- t.cur_day + 1;
          incr steps
        end
      end
    done;
    !found
  end

(* Unlink the head event of bucket [b] (the caller has located it),
   free its slot and return its thunk. The slot forgets the thunk, so a
   popped closure is collectable as soon as it has run. *)
let take_thunk t b =
  let h = t.buckets.(b) in
  let tail = t.last.(h) in
  if tail = h then begin
    t.buckets.(b) <- t.next.(h);
    t.nruns <- t.nruns - 1
  end
  else begin
    let n = t.next.(h) in
    t.last.(n) <- tail;
    t.buckets.(b) <- n
  end;
  let thunk = t.thunk.(h) in
  t.thunk.(h) <- nop;
  t.next.(h) <- t.free;
  t.free <- h;
  t.size <- t.size - 1;
  let nbuckets = t.mask + 1 in
  if nbuckets > initial_buckets && t.nruns * 8 < nbuckets then
    rebuild t (nbuckets / 2);
  thunk

let head_time t b = t.time.(t.buckets.(b))

let pop t =
  match locate t with
  | -1 -> None
  | b ->
      let time = head_time t b in
      Some (time, take_thunk t b)

let peek_time t =
  match locate t with -1 -> None | b -> Some (head_time t b)

let next_time t =
  match locate t with -1 -> raise Not_found | b -> head_time t b

let run_next t =
  match locate t with
  | -1 -> false
  | b ->
      let thunk = take_thunk t b in
      thunk ();
      true
