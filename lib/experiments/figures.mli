(** The figure registry: every table and figure the bench and the CLI
    regenerate, in one list. An entry's key, title, run order, axis
    overrides and report columns are written here and nowhere else;
    [bench/main.exe] and [chronus experiment] only iterate {!all}. *)

type axes = {
  topos : Fig_scale.kind list option;  (** [--topos]: the scale figure's cells *)
  rates : int list option;  (** [--rates]: the service figure's offered rates *)
  conns : int list option;  (** [--conns]: the conns figure's session counts *)
}
(** Axis overrides; [None] keeps the scale preset's default. *)

val default_axes : axes

val parse_topo : string -> Fig_scale.kind
(** ["fatK"], ["b4"] or ["wanN"].
    @raise Invalid_argument otherwise. *)

(** One report value: a BENCH_results.json number or boolean ([nan]
    floats are emitted as [null]). *)
type value = Int of int | Float of float | Bool of bool

type output = {
  print : unit -> unit;  (** the figure's table on stdout *)
  det : string;
      (** the deterministic projection: the rows minus their wall-clock
          and pool-timing columns, byte-identical at any job count *)
  cells : (string * (string * value) list) list;
      (** the report rows, keyed by cell; [[]] for figures without a
          report object *)
}

type t = {
  key : string;  (** the CLI name, e.g. ["scale"] *)
  title : string;  (** the figure module's [name] *)
  trial : bool;
      (** fans independent trials over the pool; the bench times these
          figures together as its trial subset *)
  report : string option;
      (** the BENCH_results.json object carrying [cells], if any *)
  run : jobs:int -> scale:Scale.t -> axes -> output;
}

val all : t list
(** Every figure, in paper order: Table II, Figs. 6–11, then the added
    robust, scale, service, conns and ablation figures. *)

val select : string list -> (t list, string) result
(** The entries named by these keys (["all"] names every entry), in
    registry order. An empty or unknown selection is an [Error] listing
    the valid keys. *)

val measure :
  t -> jobs:int -> scale:Scale.t -> axes -> output * Chronus_obs.Obs.snapshot
(** Run the figure and return the observability delta it caused. *)

val print_metrics : t -> Chronus_obs.Obs.snapshot -> unit
(** The [--metrics] table for one figure's delta; silent when empty. *)
