type t = { x : float; y : float }

let make x y = { x; y }
let origin = { x = 0.; y = 0. }
let manhattan a b = Float.abs (a.x -. b.x) +. Float.abs (a.y -. b.y)

let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let scale k p = { x = k *. p.x; y = k *. p.y }

let lerp a b t =
  { x = a.x +. (t *. (b.x -. a.x)); y = a.y +. (t *. (b.y -. a.y)) }

let centroid pts =
  match pts with
  | [] -> invalid_arg "Point.centroid: empty list"
  | _ :: _ ->
      let n = float_of_int (List.length pts) in
      let sum = List.fold_left add origin pts in
      scale (1. /. n) sum

let equal ?(eps = 1e-9) a b =
  Float.abs (a.x -. b.x) <= eps && Float.abs (a.y -. b.y) <= eps
