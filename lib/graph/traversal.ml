let bfs_order g root =
  if not (Graph.mem_node g root) then []
  else begin
    let seen = Hashtbl.create 64 in
    let queue = Queue.create () in
    Hashtbl.add seen root ();
    Queue.add root queue;
    let rec loop acc =
      if Queue.is_empty queue then List.rev acc
      else begin
        let v = Queue.pop queue in
        List.iter
          (fun (w, _) ->
            if not (Hashtbl.mem seen w) then begin
              Hashtbl.add seen w ();
              Queue.add w queue
            end)
          (Graph.succ g v);
        loop (v :: acc)
      end
    in
    loop []
  end
