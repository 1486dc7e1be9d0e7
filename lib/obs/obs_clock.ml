(* The single sanctioned wall-clock access point under lib/ (outside
   lib/report); see the L3 lint rule. *)

let now () = Unix.gettimeofday ()
