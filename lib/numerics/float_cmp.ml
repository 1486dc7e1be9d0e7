let rel_default = 1e-9

let approx_eq ?(rel = rel_default) ?(abs = 0.) a b =
  Float.abs (a -. b) <= Float.max abs (rel *. Float.max (Float.abs a) (Float.abs b))

let definitely_lt ?(rel = rel_default) ?(abs = 0.) a b =
  a < b && not (approx_eq ~rel ~abs a b)
