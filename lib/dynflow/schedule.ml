module Imap = Map.Make (Int)

(* Two synchronised views of the same set of (switch, time) entries:
   [entries] answers the oracle's per-hop [find] in O(log n); [by_time]
   groups switches by time step so that [max_time] (consulted on every
   oracle evaluation) is a max-binding lookup instead of a full fold, and
   [at] no longer rescans the whole schedule per call.
   Buckets keep insertion order; [at] sorts on read (it is presentation,
   not a hot path). *)
type t = { entries : int Imap.t; by_time : int list Imap.t }

let empty = { entries = Imap.empty; by_time = Imap.empty }

let add v time s =
  if time < 0 then invalid_arg "Schedule.add: negative time";
  if Imap.mem v s.entries then
    invalid_arg (Printf.sprintf "Schedule.add: v%d already scheduled" v);
  {
    entries = Imap.add v time s.entries;
    by_time =
      Imap.update time
        (function None -> Some [ v ] | Some l -> Some (v :: l))
        s.by_time;
  }

let of_list l = List.fold_left (fun s (v, t) -> add v t s) empty l

let to_list s =
  Imap.bindings s.entries
  |> List.sort (fun (v1, t1) (v2, t2) ->
         match Int.compare t1 t2 with 0 -> Int.compare v1 v2 | c -> c)

let mem v s = Imap.mem v s.entries

let find v s = Imap.find_opt v s.entries

let size s = Imap.cardinal s.entries

let is_empty s = Imap.is_empty s.entries

let switches s = List.map fst (Imap.bindings s.entries)

let max_time s =
  match Imap.max_binding_opt s.by_time with None -> -1 | Some (t, _) -> t

let makespan s = max_time s + 1

let at time s =
  match Imap.find_opt time s.by_time with
  | None -> []
  | Some l -> List.sort Int.compare l

let covers instance s =
  List.for_all (fun v -> mem v s) (Instance.switches_to_update instance)

let fold f s init = Imap.fold f s.entries init

let equal a b = Imap.equal Int.equal a.entries b.entries

let pp ppf s =
  Format.fprintf ppf "@[<h>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf (v, t) -> Format.fprintf ppf "v%d@@t%d" v t))
    (to_list s)
