type t = {
  name : string;
  bench : string;
  scale : float;
  insertion : Cts_config.insertion;
  hstructure : Cts_config.hstructure;
}

(* Each rung loads a different layer; README.md gives the reasons and
   the measured layer shares. *)
let all =
  [
    {
      name = "gsrc-r4";
      bench = "r4";
      scale = 1.;
      insertion = Cts_config.Greedy;
      hstructure = Cts_config.H_none;
    };
    {
      name = "dp-r1-0.3";
      bench = "r1";
      scale = 0.3;
      insertion = Cts_config.Optimal_dp;
      hstructure = Cts_config.H_none;
    };
    {
      name = "hcorrect-r3-0.5";
      bench = "r3";
      scale = 0.5;
      insertion = Cts_config.Greedy;
      hstructure = Cts_config.H_correct;
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> String.equal w.name name) all

let descriptor w =
  let d = Bmark.Synthetic.find w.bench in
  if w.scale < 1. then Bmark.Synthetic.scaled d w.scale else d

(* The seed is appended to the descriptor name, which is what seeds the
   generator: every seed is a fresh instance with the rung's sink
   count, die and clustering. *)
let sinks w ~seed =
  let d = descriptor w in
  Bmark.Synthetic.sinks
    { d with Bmark.Synthetic.name = Printf.sprintf "%s#%d" d.Bmark.Synthetic.name seed }

let config w dl =
  Cts_config.with_hstructure
    (Cts_config.with_insertion (Cts_config.default dl) w.insertion)
    w.hstructure
