let default_jobs () =
  match Sys.getenv_opt "CHRONUS_JOBS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf
               "CHRONUS_JOBS must be a positive integer, got %S" s))

(* The first failure, with the position it occurred at: re-raising the
   lowest-indexed exception keeps parallel failure reports deterministic
   when several tasks die in the same run. *)
type failure = { index : int; error : exn; trace : Printexc.raw_backtrace }

(* One batch: [jobs - 1] spawned domains and the caller claim indices off
   a shared cursor, a stop flag cuts the batch short on failure, and
   every domain is joined before the lowest-indexed exception is
   re-raised in the caller. *)
let run ~jobs ~n (body : int -> unit) =
  let cursor = Atomic.make 0 in
  let stop = Atomic.make false in
  let failed : failure option Atomic.t = Atomic.make None in
  let rec note_failure index error trace =
    Atomic.set stop true;
    let seen = Atomic.get failed in
    let better = match seen with None -> true | Some f -> index < f.index in
    if
      better
      && not (Atomic.compare_and_set failed seen (Some { index; error; trace }))
    then note_failure index error trace
  in
  let rec claim () =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < n && not (Atomic.get stop) then begin
      (try body i with e -> note_failure i e (Printexc.get_raw_backtrace ()));
      claim ()
    end
  in
  let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn claim) in
  claim ();
  List.iter Domain.join spawned;
  match Atomic.get failed with
  | Some { error; trace; _ } -> Printexc.raise_with_backtrace error trace
  | None -> ()

let parallel_init ?jobs n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  let jobs =
    match jobs with Some j when j >= 1 -> j | Some _ -> 1 | None -> default_jobs ()
  in
  let jobs = min jobs n in
  if jobs <= 1 then List.init n f
  else begin
    let out = Array.make n None in
    run ~jobs ~n (fun i -> out.(i) <- Some (f i));
    List.init n (fun i ->
        match out.(i) with
        | Some y -> y
        | None -> assert false (* every index ran, or we re-raised above *))
  end

let parallel_map ?jobs f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let inp = Array.of_list xs in
      parallel_init ?jobs (Array.length inp) (fun i -> f inp.(i))
