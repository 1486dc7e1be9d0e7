type opts = {
  workloads : Workload.t list;
  seed : int;
  reps : int;
  seconds : float option;
  trace : bool;
  json : string option;
  child : bool;
  help : bool;
}

let default =
  {
    workloads = [];
    seed = 1;
    reps = 5;
    seconds = None;
    trace = false;
    json = None;
    child = false;
    help = false;
  }

let usage =
  Printf.sprintf
    "usage: main.exe [--workload W]... [--seed N] [--reps N] [--seconds S] \
     [--trace 0|1] [--json FILE] [--child]\n\
     workloads: %s (default: all)"
    (String.concat " " Workload.names)

let parse args =
  let value opt what = function
    | [] -> Error (Printf.sprintf "option %s needs a value (%s)" opt what)
    | v :: rest -> Ok (v, rest)
  in
  let ( let* ) = Result.bind in
  let int_at_least opt lo v =
    match int_of_string_opt v with
    | Some n when n >= lo -> Ok n
    | Some _ -> Error (Printf.sprintf "%s must be at least %d (got %s)" opt lo v)
    | None -> Error (Printf.sprintf "invalid %s value %S (expected an integer)" opt v)
  in
  let rec go acc = function
    | [] ->
        let workloads =
          match acc.workloads with [] -> Workload.all | ws -> List.rev ws
        in
        if acc.child && List.length workloads <> 1 then
          Error "--child needs exactly one --workload"
        else Ok { acc with workloads }
    | ("--help" | "-h") :: _ -> Ok { acc with help = true }
    | "--workload" :: rest -> (
        let* v, rest = value "--workload" "a workload name" rest in
        match Workload.find v with
        | Some w -> go { acc with workloads = w :: acc.workloads } rest
        | None ->
            Error
              (Printf.sprintf "unknown --workload %S (expected one of %s)" v
                 (String.concat ", " Workload.names)))
    | "--seed" :: rest ->
        let* v, rest = value "--seed" "an integer" rest in
        let* seed = int_at_least "--seed" 0 v in
        go { acc with seed } rest
    | "--reps" :: rest ->
        let* v, rest = value "--reps" "an integer" rest in
        let* reps = int_at_least "--reps" 1 v in
        go { acc with reps } rest
    | "--seconds" :: rest -> (
        let* v, rest = value "--seconds" "a number" rest in
        match float_of_string_opt v with
        | Some s when s > 0. && Float.is_finite s ->
            go { acc with seconds = Some s } rest
        | Some _ -> Error (Printf.sprintf "--seconds must be positive (got %s)" v)
        | None ->
            Error (Printf.sprintf "invalid --seconds value %S (expected a number)" v))
    | "--trace" :: rest -> (
        let* v, rest = value "--trace" "0 or 1" rest in
        match v with
        | "0" -> go { acc with trace = false } rest
        | "1" -> go { acc with trace = true } rest
        | _ -> Error (Printf.sprintf "invalid --trace value %S (expected 0 or 1)" v))
    | "--json" :: rest ->
        let* v, rest = value "--json" "an output file" rest in
        go { acc with json = Some v } rest
    | "--child" :: rest -> go { acc with child = true } rest
    | opt :: _ -> Error (Printf.sprintf "unknown argument %S" opt)
  in
  go default args
