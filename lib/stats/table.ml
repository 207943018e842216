type t = { headers : string list; mutable rows : string list list }

let create ~headers =
  if headers = [] then invalid_arg "Table.create: no headers";
  { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let arity = List.length t.headers in
  let widths = Array.make arity 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let line cells = String.concat "  " (List.mapi pad cells) in
  let rule =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" ((line t.headers :: rule :: List.map line rows) @ [])

let print t =
  print_string (render t);
  print_newline ()
