(** Scalar root finding and minimization on an interval. *)

val bisect :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
  [@@cts.raises "Invalid_argument"]
(** [bisect f lo hi] finds a root of [f] in [\[lo, hi\]]. [f lo] and
    [f hi] must have opposite signs (or one endpoint is a root). Raises
    [Invalid_argument] otherwise. Default [tol] is 1e-12 on the abscissa.
    It evaluates both ends, then runs {!bisect_with}. *)

val bisect_with :
  ?tol:float -> ?max_iter:int -> flo:float -> fhi:float ->
  (float -> float) -> float -> float -> float
  [@@cts.raises "Invalid_argument"]
(** [bisect_with ~flo ~fhi f lo hi] is [bisect f lo hi] for a caller
    that already holds [flo = f lo] and [fhi = f hi]: it never evaluates
    [f] at either end, and returns the same abscissa bit for bit. *)

val golden_min :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** [golden_min f lo hi] locates the minimizer of a unimodal [f] on
    [\[lo, hi\]] by golden-section search; returns the abscissa. *)
