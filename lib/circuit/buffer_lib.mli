(** The buffer library.

    Each buffer is two cascaded inverters (as in the paper's SPICE
    netlists): a smaller first stage driving a full-size second stage.
    Sizes are expressed in multiples of a unit inverter ("10X", "20X",
    "30X" — the three types used in the experiments, echoing the sizes
    discussed in Ch. 1). *)

type t = {
  name : string;
  size : float;  (** Second-stage size in X. *)
  stage1_size : float;  (** First-stage size in X. *)
}

val make : name:string -> size:float -> t
  [@@cts.raises "Invalid_argument"]
(** Buffer with the conventional 1:4 stage ratio ([stage1 = size / 4],
    floored at 1X). *)

val default_library : t list [@@cts.raises "Invalid_argument"]
(** The 3-buffer library of the experiments: 10X, 20X, 30X. *)

val by_name : t list -> string -> t
  [@@cts.raises "Invalid_argument"]
(** Lookup by cell name; raises [Invalid_argument] naming the missing
    cell and the library's cells (a bare [Not_found] told the caller
    nothing about which lookup failed). *)

val area_x : t -> float
(** Area proxy in unit-inverter equivalents: stage-2 plus stage-1
    size. *)

val smallest : t list -> t
  [@@cts.raises "Invalid_argument"]
(** Lowest-drive buffer of a non-empty library; raises
    [Invalid_argument] on an empty one. *)

val largest : t list -> t
  [@@cts.raises "Invalid_argument"]
(** Highest-drive buffer of a non-empty library; raises
    [Invalid_argument] on an empty one. *)

val input_cap : Tech.t -> t -> float
(** Gate capacitance presented at the buffer input (stage-1 gate). *)

val output_cap : Tech.t -> t -> float
(** Diffusion capacitance loading the buffer output (stage-2 drain). *)

val internal_cap : Tech.t -> t -> float
(** Capacitance of the internal node (stage-1 drain + stage-2 gate). *)

val drive_resistance : Tech.t -> t -> float
(** First-order effective switching resistance of the output stage —
    used only for coarse estimates (the simulator uses the full
    alpha-power model). *)

val equal : t -> t -> bool
