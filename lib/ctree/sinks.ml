type spec = { name : string; pos : Geometry.Point.t; cap : float }

let centroid specs = Geometry.Point.centroid (List.map (fun s -> s.pos) specs)
let bbox specs = Geometry.Bbox.of_points (List.map (fun s -> s.pos) specs)

let validate specs =
  let errors = ref [] in
  if specs = [] then errors := "no sinks" :: !errors;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.name then
        errors := Printf.sprintf "duplicate sink name %s" s.name :: !errors;
      Hashtbl.replace seen s.name ();
      let finite field v =
        if not (Float.is_finite v) then
          errors := Printf.sprintf "sink %s has non-finite %s (%g)" s.name field v :: !errors
      in
      finite "x" s.pos.Geometry.Point.x;
      finite "y" s.pos.Geometry.Point.y;
      finite "cap" s.cap;
      if Float.is_finite s.cap && s.cap <= 0. then
        errors := Printf.sprintf "sink %s has non-positive cap" s.name :: !errors)
    specs;
  List.rev !errors
