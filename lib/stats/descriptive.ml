let check = function
  | [] -> invalid_arg "Descriptive: empty sample"
  | xs -> xs

let total xs = List.fold_left ( +. ) 0. xs

let mean xs =
  let xs = check xs in
  total xs /. float_of_int (List.length xs)

let variance xs =
  let m = mean xs in
  let sq = List.map (fun x -> (x -. m) ** 2.) xs in
  total sq /. float_of_int (List.length xs)


let minimum xs = List.fold_left min (List.hd (check xs)) xs

let maximum xs = List.fold_left max (List.hd (check xs)) xs

let percentile p xs =
  if p < 0. || p > 100. then invalid_arg "Descriptive.percentile: p out of range";
  let sorted = List.sort compare (check xs) in
  let a = Array.of_list sorted in
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  end

let median xs = percentile 50. xs

let of_ints = List.map float_of_int
