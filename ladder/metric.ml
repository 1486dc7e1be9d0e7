type t = { name : string; unit : string; value : float }

let make name unit value = { name; unit; value }

type summary = {
  s_name : string;
  s_unit : string;
  median : float;
  max : float;
  n : int;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Metric.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Metric order is the first rep's; every rep emits the same names. *)
let summarize reps =
  match reps with
  | [] -> []
  | first :: _ ->
      List.map
        (fun m ->
          let xs =
            List.filter_map
              (fun rep ->
                List.find_map
                  (fun x -> if String.equal x.name m.name then Some x.value else None)
                  rep)
              reps
          in
          {
            s_name = m.name;
            s_unit = m.unit;
            median = median xs;
            max = List.fold_left Float.max Float.neg_infinity xs;
            n = List.length xs;
          })
        first

type rep = (t list * string, string) result

type outcome = {
  attempted : int;
  failures : string list;
  digest : string option;
  summaries : summary list;
}

let outcome (reps : rep list) =
  let digest =
    List.find_map (function Ok (_, d) -> Some d | Error _ -> None) reps
  in
  let ok, failures =
    List.partition_map
      (function
        | Ok (ms, d) when Some d = digest -> Either.Left ms
        | Ok (_, d) ->
            Either.Right
              (Printf.sprintf "netlist MD5 %s differs from rep 1's %s" d
                 (Option.value ~default:"" digest))
        | Error reason -> Either.Right reason)
      reps
  in
  { attempted = List.length reps; failures; digest; summaries = summarize ok }

let fail_frac o =
  if o.attempted = 0 then 0.
  else float_of_int (List.length o.failures) /. float_of_int o.attempted
