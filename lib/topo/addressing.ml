let width = 16
let marker = 1 lsl (width - 1)

(* Bits needed to address values 0 .. n-1. *)
let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  if n <= 1 then 0 else go 1

type t = {
  a_holders : int list;
  a_hosts_per_holder : int;
  a_host_bits : int;
  a_encode : int -> int;  (* holder switch id -> packed holder field *)
}

let holders t = t.a_holders
let hosts_per_holder t = t.a_hosts_per_holder

let addr_of t ~holder ~host =
  if host < 0 || host >= t.a_hosts_per_holder then
    invalid_arg "Addressing.addr_of: host out of range";
  marker lor (t.a_encode holder lsl t.a_host_bits) lor host

let all_addrs t =
  List.concat_map
    (fun h -> List.init t.a_hosts_per_holder (fun i -> addr_of t ~holder:h ~host:i))
    t.a_holders

let check_width ~what used =
  if used > width then
    invalid_arg
      (Printf.sprintf "Addressing.%s: layout needs %d bits, width is %d" what
         used width)

let fat_tree ?(hosts_per_holder = 4) k =
  if k mod 2 <> 0 || k <= 0 then
    invalid_arg "Addressing.fat_tree: k must be even";
  let half = k / 2 in
  let core_count = half * half in
  let pod_bits = bits_for k in
  let edge_bits = bits_for half in
  let host_bits = bits_for hosts_per_holder in
  check_width ~what:"fat_tree" (1 + pod_bits + edge_bits + host_bits);
  (* Edge-switch ids follow Topology.fat_tree: per pod, a block of k
     switches, aggregation first. The address packs pod then edge index,
     so one prefix covers a pod and a longer one covers an edge switch's
     hosts. *)
  let encode id =
    let t = id - core_count in
    let pod = t / k and r = t mod k in
    if t < 0 || pod >= k || r < half then
      invalid_arg "Addressing.fat_tree: not an edge-switch id";
    (pod lsl edge_bits) lor (r - half)
  in
  let edges =
    List.concat_map
      (fun pod -> List.init half (fun e -> core_count + (pod * k) + half + e))
      (List.init k Fun.id)
  in
  {
    a_holders = edges;
    a_hosts_per_holder = hosts_per_holder;
    a_host_bits = host_bits;
    a_encode = encode;
  }

let flat ?(hosts_per_holder = 4) ~holders () =
  if holders = [] then invalid_arg "Addressing.flat: no holders";
  let host_bits = bits_for hosts_per_holder in
  let max_id = List.fold_left max 0 holders in
  check_width ~what:"flat" (1 + bits_for (max_id + 1) + host_bits);
  {
    a_holders = holders;
    a_hosts_per_holder = hosts_per_holder;
    a_host_bits = host_bits;
    a_encode = Fun.id;
  }
