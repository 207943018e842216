open Chronus_sim
module Rng = Chronus_topo.Rng
module Obs = Chronus_obs.Obs

type clock = {
  offset_us : Sim_time.t;
  drift_ppm : int;
  jitter_us : Sim_time.t;
}

type channel = {
  delay_p : float;
  extra_delay_us : Sim_time.t;
  loss_p : float;
  duplicate_p : float;
  reorder_p : float;
}

type switch_f = {
  reject_p : float;
  straggle_p : float;
  straggle_us : Sim_time.t;
  crash_p : float;
}

type config = { clock : clock; channel : channel; switches : switch_f }

let zero =
  {
    clock = { offset_us = 0; drift_ppm = 0; jitter_us = 0 };
    channel =
      {
        delay_p = 0.;
        extra_delay_us = 0;
        loss_p = 0.;
        duplicate_p = 0.;
        reorder_p = 0.;
      };
    switches = { reject_p = 0.; straggle_p = 0.; straggle_us = 0; crash_p = 0. };
  }

let is_zero c = c = zero

let drift =
  {
    zero with
    clock =
      {
        offset_us = Sim_time.msec 10;
        drift_ppm = 200;
        jitter_us = Sim_time.msec 5;
      };
  }

let lossy =
  {
    zero with
    channel =
      {
        delay_p = 0.3;
        extra_delay_us = Sim_time.msec 80;
        loss_p = 0.15;
        duplicate_p = 0.1;
        reorder_p = 0.1;
      };
  }

let chaos =
  {
    clock = drift.clock;
    channel = lossy.channel;
    switches =
      {
        reject_p = 0.1;
        straggle_p = 0.15;
        straggle_us = Sim_time.msec 150;
        crash_p = 0.05;
      };
  }

let preset_names = [ "none"; "drift"; "lossy"; "chaos" ]

let of_preset = function
  | "none" -> zero
  | "drift" -> drift
  | "lossy" -> lossy
  | "chaos" -> chaos
  | s -> invalid_arg (Printf.sprintf "Faults.of_preset: unknown preset %S" s)

let with_clock_error e c =
  { c with clock = { c.clock with offset_us = e; jitter_us = e } }

let pp ppf c =
  if is_zero c then Format.fprintf ppf "faults:none"
  else
    Format.fprintf ppf
      "faults{clock(off=%a drift=%dppm jit=%a) chan(delay=%g/%a loss=%g \
       dup=%g reord=%g) sw(rej=%g strag=%g/%a crash=%g)}"
      Sim_time.pp c.clock.offset_us c.clock.drift_ppm Sim_time.pp
      c.clock.jitter_us c.channel.delay_p Sim_time.pp c.channel.extra_delay_us
      c.channel.loss_p c.channel.duplicate_p c.channel.reorder_p
      c.switches.reject_p c.switches.straggle_p Sim_time.pp
      c.switches.straggle_us c.switches.crash_p

type fate = {
  lost : bool;
  duplicated : bool;
  extra_delay_us : Sim_time.t;
  rejected : bool;
  straggle_us : Sim_time.t;
  crashed : bool;
}

(* Fault sites observed. Counters fire only when a fault actually
   happens, so a zero config leaves them untouched. *)
let c_lost = Obs.Counter.v "faults.chan.lost"
let c_duplicated = Obs.Counter.v "faults.chan.duplicated"
let c_delayed = Obs.Counter.v "faults.chan.delayed"
let c_reordered = Obs.Counter.v "faults.chan.reordered"
let c_rejected = Obs.Counter.v "faults.switch.rejected"
let c_straggled = Obs.Counter.v "faults.switch.straggled"
let c_crashed = Obs.Counter.v "faults.switch.crashed"
let c_skewed = Obs.Counter.v "faults.clock.skewed_flips"

module Engine = struct
  type sw_clock = { offset : Sim_time.t; drift : int; jitter_rng : Rng.t }

  type t = {
    config : config;
    seed : int;
    lane : int list;
    commands : Rng.t;  (** one shared stream for per-command fate draws *)
    clocks : (int, sw_clock) Hashtbl.t;
  }

  (* Coordinate tags keeping the engine's streams disjoint from every
     experiment lane (which all start with small figure numbers). *)
  let fate_tag = 0xFA7E
  let clock_tag = 0xC10C

  let create ?(seed = 1) ?(lane = []) config =
    {
      config;
      seed;
      lane;
      commands = Rng.derive seed ((fate_tag :: lane) @ [ 0 ]);
      clocks = Hashtbl.create 16;
    }

  let config t = t.config

  (* Symmetric draw in [-bound, bound]; zero bound consumes no draw so
     that enabling one fault axis never shifts another axis' stream. *)
  let sym rng bound = if bound = 0 then 0 else Rng.in_range rng (-bound) bound

  let sw_clock t switch =
    match Hashtbl.find_opt t.clocks switch with
    | Some c -> c
    | None ->
        let rng = Rng.derive t.seed ((clock_tag :: t.lane) @ [ switch ]) in
        let c =
          {
            offset = sym rng t.config.clock.offset_us;
            drift = sym rng t.config.clock.drift_ppm;
            jitter_rng = rng;
          }
        in
        Hashtbl.add t.clocks switch c;
        c

  let clock_error t ~switch ~at =
    let cl = t.config.clock in
    if cl.offset_us = 0 && cl.drift_ppm = 0 && cl.jitter_us = 0 then 0
    else
      let c = sw_clock t switch in
      (* drift is µs of error per second of elapsed schedule time *)
      let drifted = c.drift * at / 1_000_000 in
      let err = c.offset + drifted + sym c.jitter_rng cl.jitter_us in
      if err <> 0 then Obs.Counter.incr c_skewed;
      err

  (* Bernoulli that consumes no draw at p = 0, so fault axes stay
     stream-independent of each other. *)
  let flip rng p = p > 0. && Rng.float rng 1.0 < p

  let command_fate t ~switch =
    let ch = t.config.channel and sw = t.config.switches in
    let rng = t.commands in
    ignore switch;
    let lost = flip rng ch.loss_p in
    let duplicated = (not lost) && flip rng ch.duplicate_p in
    let delayed = flip rng ch.delay_p in
    let delay =
      if delayed && ch.extra_delay_us > 0 then
        1 + Rng.int rng ch.extra_delay_us
      else 0
    in
    let reordered = flip rng ch.reorder_p in
    let extra_delay_us =
      (* A reordered command waits out a full extra-delay window on top
         of any ordinary delay, letting later commands overtake it. *)
      delay + if reordered then ch.extra_delay_us else 0
    in
    let rejected = (not lost) && flip rng sw.reject_p in
    let straggle_us =
      if (not lost) && flip rng sw.straggle_p && sw.straggle_us > 0 then
        1 + Rng.int rng sw.straggle_us
      else 0
    in
    let crashed = (not lost) && (not rejected) && flip rng sw.crash_p in
    if lost then Obs.Counter.incr c_lost;
    if duplicated then Obs.Counter.incr c_duplicated;
    if delay > 0 then Obs.Counter.incr c_delayed;
    if reordered then Obs.Counter.incr c_reordered;
    if rejected then Obs.Counter.incr c_rejected;
    if straggle_us > 0 then Obs.Counter.incr c_straggled;
    if crashed then Obs.Counter.incr c_crashed;
    { lost; duplicated; extra_delay_us; rejected; straggle_us; crashed }
end
