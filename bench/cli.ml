type opts = {
  scale : float;
  profile : Delaylib.profile;
  kernels : bool;
  parallel_bench : bool;
  alloc_gate : bool;
  trace : string option;
  stats : bool;
  help : bool;
  selected : string list;
}

let default =
  {
    scale = 0.25;
    profile = Delaylib.Accurate;
    kernels = true;
    parallel_bench = false;
    alloc_gate = false;
    trace = None;
    stats = false;
    help = false;
    selected = [];
  }

let usage ~known =
  Printf.sprintf
    "usage: main.exe [--scale F] [--profile fast|accurate] [--no-kernels] \
     [--parallel-bench] [--alloc-gate] [--stats] [--trace FILE] \
     [experiment ...]\n\
     experiments: %s"
    (String.concat " " known)

let parse ~known args =
  let rec go acc = function
    | [] -> Ok { acc with selected = List.rev acc.selected }
    | ("--help" | "-h") :: _ -> Ok { acc with help = true }
    | "--scale" :: rest -> (
        match rest with
        | [] -> Error "option --scale needs a value"
        | v :: rest -> (
            match float_of_string_opt v with
            | Some f when f > 0. -> go { acc with scale = f } rest
            | Some _ ->
                Error (Printf.sprintf "--scale must be positive (got %s)" v)
            | None ->
                Error
                  (Printf.sprintf "invalid --scale value %S (expected a number)"
                     v)))
    | "--profile" :: rest -> (
        match rest with
        | [] -> Error "option --profile needs a value (fast or accurate)"
        | "fast" :: rest -> go { acc with profile = Delaylib.Fast } rest
        | "accurate" :: rest -> go { acc with profile = Delaylib.Accurate } rest
        | v :: _ ->
            Error
              (Printf.sprintf
                 "unknown --profile %S (expected fast or accurate)" v))
    | "--no-kernels" :: rest -> go { acc with kernels = false } rest
    | "--parallel-bench" :: rest -> go { acc with parallel_bench = true } rest
    | "--alloc-gate" :: rest -> go { acc with alloc_gate = true } rest
    | "--trace" :: rest -> (
        match rest with
        | [] -> Error "option --trace needs a value (output file)"
        | v :: rest -> go { acc with trace = Some v } rest)
    | "--stats" :: rest -> go { acc with stats = true } rest
    | opt :: _ when String.length opt > 0 && opt.[0] = '-' ->
        Error (Printf.sprintf "unknown option %S" opt)
    | name :: rest ->
        if List.mem name known then
          go { acc with selected = name :: acc.selected } rest
        else Error (Printf.sprintf "unknown experiment %S" name)
  in
  go default args
