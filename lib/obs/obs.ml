external clock_ns : unit -> int = "chronus_obs_clock_ns" [@@noalloc]

let start_ns = clock_ns ()

(* ------------------------------------------------------------------ *)
(* Registry: one process-global immutable map behind an Atomic. Reads
   (the hot path: every [Counter.v]-by-label or [Span.v]) are a load
   plus a balanced-tree lookup; inserts CAS-loop, which only ever races
   during module initialisation. *)

type span_cell = {
  s_count : int Atomic.t;
  s_total : int Atomic.t;
  s_max : int Atomic.t;
}

type cell =
  | Ccounter of int Atomic.t
  | Cgauge of int Atomic.t
  | Cspan of span_cell
  | Cpoint

module M = Map.Make (String)

let registry : cell M.t Atomic.t = Atomic.make M.empty

let kind_name = function
  | Ccounter _ -> "counter"
  | Cgauge _ -> "gauge"
  | Cspan _ -> "span"
  | Cpoint -> "point"

let rec register label fresh same =
  let m = Atomic.get registry in
  match M.find_opt label m with
  | Some cell -> (
      match same cell with
      | Some c -> c
      | None ->
          invalid_arg
            (Printf.sprintf "Obs: label %S already registered as a %s" label
               (kind_name cell)))
  | None ->
      let cell = fresh () in
      if Atomic.compare_and_set registry m (M.add label cell m) then
        match same cell with Some c -> c | None -> assert false
      else register label fresh same

let rec atomic_max a x =
  let cur = Atomic.get a in
  if x > cur && not (Atomic.compare_and_set a cur x) then atomic_max a x

(* ------------------------------------------------------------------ *)
(* The trace sink. *)

type sink = { oc : out_channel; mutex : Mutex.t; file : string }

let sink : sink option Atomic.t = Atomic.make None

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type field = Int of int | Float of float | String of string | Bool of bool

let emit_record s ~kind ~label fields =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"ts\": %d, \"domain\": %d, \"kind\": \"%s\", \"label\": \"%s\", \"fields\": {"
       (clock_ns () - start_ns)
       (Domain.self () :> int)
       kind (json_escape label));
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": " (json_escape k));
      match v with
      | Int n -> Buffer.add_string b (string_of_int n)
      | Float f ->
          if Float.is_nan f || Float.abs f = Float.infinity then
            Buffer.add_string b "null"
          else Buffer.add_string b (Printf.sprintf "%.6g" f)
      | String s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (json_escape s))
      | Bool v -> Buffer.add_string b (string_of_bool v))
    fields;
  Buffer.add_string b "}}\n";
  Mutex.lock s.mutex;
  Buffer.output_buffer s.oc b;
  Mutex.unlock s.mutex

let trace_enabled () = Atomic.get sink <> None

let trace ~kind ~label fields =
  match Atomic.get sink with
  | None -> ()
  | Some s -> emit_record s ~kind ~label fields

(* ------------------------------------------------------------------ *)
(* Metric cells. *)

module Counter = struct
  type t = int Atomic.t

  let v label =
    register label
      (fun () -> Ccounter (Atomic.make 0))
      (function Ccounter a -> Some a | _ -> None)

  let incr ?(by = 1) t = ignore (Atomic.fetch_and_add t by)
  let value = Atomic.get
end

module Gauge = struct
  type t = int Atomic.t

  let v label =
    register label
      (fun () -> Cgauge (Atomic.make 0))
      (function Cgauge a -> Some a | _ -> None)

  let observe t x = atomic_max t x
  let value = Atomic.get
end

module Span = struct
  type t = { label : string; cell : span_cell }

  type stat = { count : int; total_ns : int; max_ns : int }

  let v label =
    let cell =
      register label
        (fun () ->
          Cspan
            {
              s_count = Atomic.make 0;
              s_total = Atomic.make 0;
              s_max = Atomic.make 0;
            })
        (function Cspan c -> Some c | _ -> None)
    in
    { label; cell }

  let record t dur_ns =
    ignore (Atomic.fetch_and_add t.cell.s_count 1);
    ignore (Atomic.fetch_and_add t.cell.s_total dur_ns);
    atomic_max t.cell.s_max dur_ns;
    if trace_enabled () then
      trace ~kind:"span" ~label:t.label [ ("dur_ns", Int dur_ns) ]

  let with_h t f =
    let t0 = clock_ns () in
    match f () with
    | y ->
        record t (clock_ns () - t0);
        y
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        record t (clock_ns () - t0);
        Printexc.raise_with_backtrace e bt

end

module Point = struct
  type t = string

  type nonrec field = field = Int of int | Float of float | String of string | Bool of bool

  let v label =
    register label (fun () -> Cpoint) (function Cpoint -> Some label | _ -> None)

  let emit t fields = trace ~kind:"point" ~label:t fields
end

(* ------------------------------------------------------------------ *)
(* The sink's lifecycle — after [Point], so the meta record's label is a
   registered point and the documentation test covers it. *)

let p_trace_start = Point.v "trace.start"

module Trace = struct
  let close_current () =
    match Atomic.exchange sink None with
    | None -> ()
    | Some s ->
        Mutex.lock s.mutex;
        close_out s.oc;
        Mutex.unlock s.mutex

  let set_path p =
    close_current ();
    match p with
    | None -> ()
    | Some file ->
        let s = { oc = open_out file; mutex = Mutex.create (); file } in
        Atomic.set sink (Some s);
        emit_record s ~kind:"meta" ~label:p_trace_start
          [ ("schema", String "chronus-trace/1"); ("clock", String "monotonic") ]

  let path () =
    match Atomic.get sink with None -> None | Some s -> Some s.file
end

let () =
  (match Sys.getenv_opt "CHRONUS_TRACE" with
  | Some file when file <> "" -> Trace.set_path (Some file)
  | _ -> ());
  at_exit (fun () ->
      match Atomic.get sink with
      | None -> ()
      | Some s ->
          Mutex.lock s.mutex;
          flush s.oc;
          Mutex.unlock s.mutex)

(* ------------------------------------------------------------------ *)
(* Registry-wide operations. *)

type value =
  | Counter of int
  | Gauge of int
  | Span of Span.stat

type snapshot = (string * value) list

let snapshot () =
  M.fold
    (fun label cell acc ->
      match cell with
      | Ccounter a -> (label, Counter (Atomic.get a)) :: acc
      | Cgauge a -> (label, Gauge (Atomic.get a)) :: acc
      | Cspan c ->
          ( label,
            Span
              {
                Span.count = Atomic.get c.s_count;
                total_ns = Atomic.get c.s_total;
                max_ns = Atomic.get c.s_max;
              } )
          :: acc
      | Cpoint -> acc)
    (Atomic.get registry) []
  |> List.sort compare

let diff before after =
  List.filter_map
    (fun (label, v_after) ->
      let v_before = List.assoc_opt label before in
      match (v_before, v_after) with
      | None, v -> Some (label, v)
      | Some (Counter b), Counter a ->
          if a > b then Some (label, Counter (a - b)) else None
      | Some (Gauge b), Gauge a -> if a > b then Some (label, Gauge a) else None
      | Some (Span b), Span a ->
          if a.Span.count > b.Span.count then
            Some
              ( label,
                Span
                  {
                    Span.count = a.Span.count - b.Span.count;
                    total_ns = a.Span.total_ns - b.Span.total_ns;
                    max_ns = a.Span.max_ns;
                  } )
          else None
      | Some _, v ->
          (* A label cannot change kind; keep the after value defensively. *)
          Some (label, v))
    after

let all_labels () =
  M.fold
    (fun label cell acc ->
      let kind =
        match cell with
        | Ccounter _ -> `Counter
        | Cgauge _ -> `Gauge
        | Cspan _ -> `Span
        | Cpoint -> `Point
      in
      (label, kind) :: acc)
    (Atomic.get registry) []
  |> List.sort compare

let reset () =
  M.iter
    (fun _ cell ->
      match cell with
      | Ccounter a | Cgauge a -> Atomic.set a 0
      | Cspan c ->
          Atomic.set c.s_count 0;
          Atomic.set c.s_total 0;
          Atomic.set c.s_max 0
      | Cpoint -> ())
    (Atomic.get registry)

let human_ns ns =
  let f = float_of_int ns in
  if f >= 1e9 then Printf.sprintf "%.3f s" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.3f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.3f us" (f /. 1e3)
  else Printf.sprintf "%d ns" ns

let print_table snap =
  if snap = [] then print_endline "(no metrics recorded)"
  else begin
    Printf.printf "%-32s %-8s %s\n" "label" "kind" "value";
    Printf.printf "%s\n" (String.make 72 '-');
    List.iter
      (fun (label, v) ->
        match v with
        | Counter n -> Printf.printf "%-32s %-8s %d\n" label "counter" n
        | Gauge n -> Printf.printf "%-32s %-8s %d\n" label "gauge" n
        | Span s ->
            Printf.printf "%-32s %-8s count=%d total=%s max=%s\n" label "span"
              s.Span.count (human_ns s.Span.total_ns) (human_ns s.Span.max_ns))
      snap
  end
