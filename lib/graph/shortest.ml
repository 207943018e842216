(* A tiny pairing-free priority queue backed by a sorted module would be
   overkill; we reuse a binary heap on (distance, node) pairs. Stale
   entries are skipped on pop, the standard lazy-deletion Dijkstra. *)
module Heap = struct
  type t = { mutable data : (int * int) array; mutable size : int }

  let create () = { data = Array.make 64 (0, 0); size = 0 }

  let grow h =
    if h.size = Array.length h.data then begin
      let data = Array.make (2 * h.size) (0, 0) in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end

  let push h x =
    grow h;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then
          smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then
          smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

let dijkstra g src =
  let dist = Hashtbl.create 64 in
  if Graph.mem_node g src then begin
    let heap = Heap.create () in
    Hashtbl.replace dist src (0, src);
    Heap.push heap (0, src);
    let rec loop () =
      match Heap.pop heap with
      | None -> ()
      | Some (d, v) ->
          let current = fst (Hashtbl.find dist v) in
          if d = current then
            List.iter
              (fun (w, (e : Graph.edge)) ->
                let candidate = d + e.delay in
                let better =
                  match Hashtbl.find_opt dist w with
                  | None -> true
                  | Some (old, _) -> candidate < old
                in
                if better then begin
                  Hashtbl.replace dist w (candidate, v);
                  Heap.push heap (candidate, w)
                end)
              (Graph.succ g v);
          loop ()
    in
    loop ()
  end;
  dist

let reconstruct dist src dst =
  let rec walk acc v =
    if v = src then Some (src :: acc)
    else
      match Hashtbl.find_opt dist v with
      | None -> None
      | Some (_, prev) -> walk (v :: acc) prev
  in
  if Hashtbl.mem dist dst then walk [] dst else None

let shortest_path g src dst =
  let dist = dijkstra g src in
  reconstruct dist src dst

let hop_path g src dst =
  if not (Graph.mem_node g src && Graph.mem_node g dst) then None
  else begin
    let prev = Hashtbl.create 64 in
    let queue = Queue.create () in
    Hashtbl.replace prev src src;
    Queue.add src queue;
    let found = ref (src = dst) in
    while (not !found) && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun (w, _) ->
          if not (Hashtbl.mem prev w) then begin
            Hashtbl.replace prev w v;
            if w = dst then found := true;
            Queue.add w queue
          end)
        (Graph.succ g v)
    done;
    if not (Hashtbl.mem prev dst) then None
    else begin
      let rec walk acc v =
        if v = src then src :: acc else walk (v :: acc) (Hashtbl.find prev v)
      in
      Some (walk [] dst)
    end
  end
