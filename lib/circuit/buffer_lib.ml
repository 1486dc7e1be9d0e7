type t = { name : string; size : float; stage1_size : float }

let make ~name ~size =
  if size <= 0. then invalid_arg "Buffer_lib.make: non-positive size";
  { name; size; stage1_size = Float.max 1. (size /. 4.) }

let default_library =
  [ make ~name:"BUF10X" ~size:10.; make ~name:"BUF20X" ~size:20.;
    make ~name:"BUF30X" ~size:30. ]

let by_name lib name =
  match List.find_opt (fun b -> b.name = name) lib with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf
           "Buffer_lib.by_name: no cell %S in library [%s]" name
           (String.concat "; " (List.map (fun b -> b.name) lib)))

let area_x b = b.size +. b.stage1_size

let smallest lib =
  match lib with
  | [] -> invalid_arg "Buffer_lib.smallest: empty library"
  | b :: rest ->
      List.fold_left (fun acc x -> if x.size < acc.size then x else acc) b rest

let largest lib =
  match lib with
  | [] -> invalid_arg "Buffer_lib.largest: empty library"
  | b :: rest ->
      List.fold_left (fun acc x -> if x.size > acc.size then x else acc) b rest

let input_cap (tech : Tech.t) b = tech.gate_cap_per_x *. b.stage1_size
let output_cap (tech : Tech.t) b = tech.drain_cap_per_x *. b.size

let internal_cap (tech : Tech.t) b =
  (tech.drain_cap_per_x *. b.stage1_size) +. (tech.gate_cap_per_x *. b.size)

let drive_resistance (tech : Tech.t) b =
  let idsat =
    tech.k_per_x *. b.size *. ((tech.vdd -. tech.vt) ** tech.alpha)
  in
  tech.vdd /. (2. *. idsat)

let equal a b = a.name = b.name && a.size = b.size
