type t = int

let msec n = n * 1_000
let sec n = n * 1_000_000

let to_sec t = float_of_int t /. 1_000_000.
let to_msec t = float_of_int t /. 1_000.

let pp ppf t = Format.fprintf ppf "%.3fs" (to_sec t)
