(** The one front end of the four lint families.

    {!Lint} (L1–L5), {!Units} (U1–U4), {!Race} (C1–C5) and {!Exc}
    (E1–E5) are analyses over what this module builds once per run:

    - every [.ml] and [.mli] parsed once, in sorted path order, with one
      syntax diagnostic per file that does not parse and the raw text
      kept (rule L5 reads interfaces as text);
    - per-file module names and top-level module aliases;
    - the shared syntactic helpers, the write-primitive and
      fresh-allocator tables, and the recognition of task-submission
      calls ([Parallel.map]/[Parallel.iter], [Domain.spawn]);
    - the list of top-level definitions keyed by [(Module, name)];
    - a summary table that each interprocedural family fills with its
      own per-definition summaries (call edges included) and task
      roots, plus the fixpoint loop and the reachability walk over it.

    Nothing here runs the type-checker: every family is a conservative
    syntactic approximation (DESIGN.md 5c and 5r).

    Domain-safety: pure analysis over in-memory sources; every table is
    local to one {!parse} result or one family run. *)

open Parsetree

(** {1 Diagnostics} *)

type diagnostic = {
  rule : string;  (** ["L1"] .. ["E5"], or ["syntax"] for unparseable input. *)
  file : string;
  line : int;
  col : int;
  message : string;
}

val diag : string -> string -> Location.t -> string -> diagnostic
(** [diag rule file loc message] places a diagnostic at [loc]'s start. *)

val to_string : diagnostic -> string
(** ["file:line:col: [rule] message"]. *)

val sort_diagnostics : diagnostic list -> diagnostic list
(** Sort in report order, (file, line, col, rule, message), and
    deduplicate. *)

(** {1 Paths and files} *)

val normalize_path : string -> string
(** Normalize a source path for rule scoping: drop ["."] segments,
    resolve [".."] where possible, and re-root at the last segment
    naming a known top-level source directory ([lib], [bin], [bench],
    [test], [examples]) — so ["./lib/dme/d.ml"],
    ["/abs/checkout/lib/dme/d.ml"] and ["lib/dme/d.ml"] all scope (and
    report) identically. Paths containing no known root are only
    cleaned. *)

val has_prefix : string -> string -> bool
val has_suffix : string -> string -> bool

val contains : string -> string -> bool
(** [contains s sub]: [sub] occurs in [s]. *)

val read_file : string -> string
(** The whole file; raises [Sys_error] when it cannot be read. *)

val scan : string list -> (string list, string) result
(** Recursively collect [.ml] and [.mli] files under the given files
    or directories, skipping [_build], [.git] and hidden directories;
    the result is sorted for deterministic reports. [Error msg] names
    the first path that does not exist or cannot be read (a missing
    argument, a dangling symlink, an unreadable directory). *)

(** {1 Parsing} *)

type ast = Impl of structure | Intf of signature

type file = {
  path : string;  (** normalized *)
  modname : string;  (** [lib/dme/merge_seg.ml] is [Merge_seg] *)
  text : string;
  ast : ast option;  (** [None] when the file does not parse *)
  aliases : (string * string) list;
      (** top-level [module A = X.B] items as [(A, B)], newest first *)
}

type def = {
  file : file;
  name : string;
      (** the bound name; ["_top_<line>"] for a pattern binding,
          ["_eval"] for a toplevel expression *)
  expr : expression;
  attrs : attributes;
  loc : Location.t;
}

type t = {
  files : file list;  (** [.ml] and [.mli] sources, sorted by path *)
  defs : def list;  (** top-level definitions in file and source order *)
  syntax : diagnostic list;  (** one per file that does not parse *)
}

val parse : (string * string) list -> t
(** [parse [(path, contents); ...]]: paths are normalized, sorted and
    parsed once; entries that are neither [.ml] nor [.mli] are
    ignored. *)

val implementations : t -> (file * structure) list
val interfaces : t -> (file * signature) list

(** {1 Shared syntactic helpers} *)

val module_name_of : string -> string
val dotted : string list -> string
(** The last two segments: [["A"; "B"; "f"]] is ["B.f"]. *)

val apply_head : expression -> string list option
(** The flattened identifier an application applies, if any. *)

val string_payload : payload -> string option
val pattern_vars : pattern -> string list
val nolabel_args : (Asttypes.arg_label * expression) list -> expression list

val resolve_alias : file -> string -> string

val qualified : file -> Longident.t -> (string * string) option
(** [(Module, name)] for a dotted identifier, its module resolved
    through the file's aliases; [None] for a bare name. *)

val write_prims : (string * (int * int option)) list
(** Mutation primitives: head -> (index of the mutated positional
    argument, index of the stored value where one is meaningful). *)

val fresh_allocs : string list
(** Allocators whose result is fresh mutable state: a let-bound name
    holding one is task-local. *)

val guard_mechanism : string -> (string * string option) option
(** The mechanism of a [[@cts.guarded]] payload: ["mutex"],
    ["atomic"], ["domain-local"], or ["mutex:NAME"] as
    [("mutex", Some NAME)]; [None] when malformed. *)

type task = Pool | Spawn

val task_call : file -> string list -> task option
(** The task a call head submits: [Parallel.map]/[Parallel.iter]
    (module aliases resolved) are pool tasks, [Domain.spawn] a spawned
    domain. *)

(** {1 Summary tables, fixpoint and reachability} *)

type 'a table
(** Per-definition summaries keyed by [(Module, name)], in creation
    order, with the task roots among them. *)

val table : unit -> 'a table

val summary : 'a table -> string * string -> (string * string -> 'a) -> 'a
(** The summary under a key, made from the key on first use. *)

val root : 'a table -> file -> Location.t -> (string * string -> 'a) -> 'a
(** The summary of the task closure at [loc], keyed
    [(Module, "<task@line:col>")] and registered as a root on
    creation. *)

val find : 'a table -> string * string -> 'a option
val summaries : 'a table -> 'a list
val roots : 'a table -> 'a list

val fixpoint : max_rounds:int -> (unit -> bool) -> unit
(** [fixpoint ~max_rounds round] runs [round] until it reports no
    change, at most [max_rounds] times. *)

val propagate :
  'a table ->
  edges:('a -> ((string * string) * 'e) list) ->
  ('a -> 'e -> 'a -> bool) ->
  unit
(** [propagate table ~edges transfer] visits every summary in creation
    order and, for each of its edges to another known summary, calls
    [transfer caller edge callee]; rounds repeat until no transfer
    reports a change. Transfers must be monotone. *)

val via : string * string -> string -> string
(** The witness chain through callee [(M, n)]: ["M.n -> witness"]. *)

val reachable : 'a table -> 'a list -> ('a -> (string * string) list) -> 'a list
(** Summaries reachable from the given roots over the callee keys
    (breadth-first; the roots included). *)
