module Point = Geometry.Point

type t = { pts : Point.t array; cum : float array }

(* Insert the staircase corner between consecutive points that are not
   axis-aligned. *)
let expand ~vertical_first pts =
  let rec go = function
    | ([] | [ _ ]) as tail -> tail
    | a :: (b :: _ as rest) ->
        let (ax, ay) = (a.Point.x, a.Point.y) in
        let (bx, by) = (b.Point.x, b.Point.y) in
        if ax = bx || ay = by then a :: go rest
        else
          let c =
            if vertical_first then { Point.x = ax; y = by }
            else { Point.x = bx; y = ay }
          in
          a :: c :: go rest
  in
  go pts

(* [make] and [via] pass two or three points, so [pts] is never empty. *)
let of_points ~vertical_first pts =
  let pts = Array.of_list (expand ~vertical_first pts) in
  let n = Array.length pts in
  let cum = Array.make n 0. in
  for i = 1 to n - 1 do
    cum.(i) <- cum.(i - 1) +. Point.manhattan pts.(i - 1) pts.(i)
  done;
  { pts; cum }

let make ?(vertical_first = false) a b = of_points ~vertical_first [ a; b ]
let via ?(vertical_first = false) a w b = of_points ~vertical_first [ a; w; b ]
let length t = t.cum.(Array.length t.cum - 1)

let waypoints t = Array.to_list t.pts

let point_at t d =
  let n = Array.length t.pts in
  let d = Float.max 0. (Float.min (length t) d) in
  (* Find the segment containing distance d. *)
  let rec seg i = if i >= n - 1 || t.cum.(i + 1) >= d then i else seg (i + 1) in
  if n = 1 then t.pts.(0)
  else begin
    let i = seg 0 in
    let a = t.pts.(i) and b = t.pts.(Int.min (i + 1) (n - 1)) in
    let seg_len = t.cum.(Int.min (i + 1) (n - 1)) -. t.cum.(i) in
    if seg_len <= 0. then a
    else
      let f = (d -. t.cum.(i)) /. seg_len in
      Point.lerp a b f
  end
