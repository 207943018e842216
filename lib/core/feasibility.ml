open Chronus_flow

let default_horizon inst =
  let drain_pause = Instance.init_delay inst + Instance.fin_delay inst + 2 in
  ((Instance.update_count inst + 1) * drain_pause) + 2
