(* The host-speed reference.

   The benchmark runs on shared virtual machines whose speed drifts by
   up to 2x, over seconds and over minutes: the same build on the same
   inputs runs 2x slower in one phase than in another, in CPU time as
   well as in wall time, so no statistic over a workload's own timings
   can tell a slow phase of the host from a slow build. The reference is
   a fixed piece of bench-side code, timed between the workload's
   operations all through each pass. Its median time in a pass, against
   its nominal time, is the pass's slowdown, and the pass's end-to-end
   times are divided by it.

   The reference neither allocates nor touches memory: no collection
   runs inside it, and neither the heap nor the caches the workload
   leaves behind change its time. Nothing in lib/ can. It is a chain of
   dependent integer operations with data-dependent branches. *)

module Obs = Chronus_obs.Obs

let steps = 75_000
let sink = ref 0

let reference () =
  let h = ref 7 in
  for k = 1 to steps do
    h := if !h land 1 = 0 then (!h lsr 1) + k else ((3 * !h) + 1) land 0xFFFFFF
  done;
  sink := !sink + !h

(* The reference's time on the host README.md describes, in its usual
   phase. *)
let nominal_ns = 500_000.

(* At most one sample every [interval_ns]: about 2% of a pass. The
   samples go to a preallocated buffer, so that sampling, whose count
   depends on the time a pass takes, allocates nothing and leaves the
   collector's schedule, and with it [peak_heap_mb], to the workload.
   Only untraced runs sample, and only they allocate the buffer. *)
let interval_ns = 25_000_000
let buffer = lazy (Float.Array.make 4096 0.)
let count = ref 0
let last = ref 0
let sampling = ref false

let sample () =
  let t0 = Obs.clock_ns () in
  reference ();
  last := Obs.clock_ns ();
  let samples = Lazy.force buffer in
  if !count < Float.Array.length samples then begin
    Float.Array.set samples !count (float_of_int (!last - t0));
    incr count
  end

(* Called between timed calls: after every operation and, in
   dataplane-conns, after every engine window. *)
let tick () =
  if !sampling && Obs.clock_ns () - !last >= interval_ns then sample ()

let start_pass () =
  count := 0;
  sampling := true;
  sample ()

(* The pass's reference samples, in ns. *)
let end_pass () =
  sampling := false;
  Float.Array.to_list (Float.Array.sub (Lazy.force buffer) 0 !count)
