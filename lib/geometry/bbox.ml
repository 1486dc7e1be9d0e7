type t = { xmin : float; ymin : float; xmax : float; ymax : float }

let make xmin ymin xmax ymax =
  if xmin > xmax || ymin > ymax then invalid_arg "Bbox.make: inverted box";
  { xmin; ymin; xmax; ymax }

let of_points pts =
  match pts with
  | [] -> invalid_arg "Bbox.of_points: empty list"
  | (p : Point.t) :: rest ->
      List.fold_left
        (fun b (q : Point.t) ->
          {
            xmin = Float.min b.xmin q.x;
            ymin = Float.min b.ymin q.y;
            xmax = Float.max b.xmax q.x;
            ymax = Float.max b.ymax q.y;
          })
        { xmin = p.x; ymin = p.y; xmax = p.x; ymax = p.y }
        rest

let width b = b.xmax -. b.xmin
let height b = b.ymax -. b.ymin
let longest_side b = Float.max (width b) (height b)
let half_perimeter b = width b +. height b

let expand b m =
  { xmin = b.xmin -. m; ymin = b.ymin -. m; xmax = b.xmax +. m; ymax = b.ymax +. m }

let contains b (p : Point.t) =
  p.x >= b.xmin && p.x <= b.xmax && p.y >= b.ymin && p.y <= b.ymax
