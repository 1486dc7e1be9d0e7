(** Minimal JSON reader and canonical writer.

    The repository deliberately has no JSON dependency. This module is
    both sides of that bargain: a strict recursive-descent parser over
    the full value grammar — objects, arrays, strings with escapes,
    numbers, [true]/[false]/[null] — used to validate emitted trace
    files ([cts_run trace-check], [make trace-smoke]), and a canonical
    writer used by everything that emits structured output
    ({!Qor} snapshots, [bench]'s [BENCH_*.json] records).

    {b Canonical form.} The writer is deterministic: object members are
    emitted in the order the {!t} value lists them, numbers print
    through one fixed algorithm (integral values without a fraction,
    everything else via [%.12g]), and pretty-printing uses a fixed
    two-space indent. Two equal {!t} values therefore always serialize
    to byte-identical strings — the property the QoR determinism
    oracle and the baseline regression gate rely on.

    Domain-safety: parsing and writing use call-local state only; safe
    from any domain. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value spanning the whole input (trailing whitespace
    allowed). [Error msg] pinpoints the byte offset of the first
    problem. *)

val validate_trace : string -> (int, string) result
(** Check that the input is a Chrome trace-event JSON array: a top-level
    array whose elements are objects each carrying string ["name"] and
    ["ph"] members, where ["X"] complete events carry numeric ["ts"] and
    ["dur"] and flow events (["s"]/["t"]/["f"]) carry a numeric ["id"]
    and ["ts"]. Returns the event count. *)

(** {1 Canonical writer} *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control characters);
    does not add the surrounding quotes. *)

val to_string : ?pretty:bool -> t -> string
(** Serialize canonically. [pretty] (default [false]) breaks objects
    and arrays over lines with two-space indentation and ends the
    output with a newline — the form committed baselines use so diffs
    stay reviewable. Raises [Invalid_argument] on a NaN or infinite
    {!Num}: JSON cannot represent them, and silently emitting [null]
    would defeat the strict readers layered on top. *)

val write_file : string -> t -> unit
(** Write {!to_string}[ ~pretty:true] to a file. *)

val read_file : string -> (string, string) result
(** A whole file as text. [Error] names the path and the reason: a
    missing or unreadable file, a directory, a short read. The one
    read path of the strict readers and of [cts_run]'s input files. *)

(** {1 Accessors (for strict readers)} *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up a key; [None] on other values. *)

val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
(** Integral {!Num} only; rejects values with a fractional part. *)

val to_str : t -> (string, string) result
