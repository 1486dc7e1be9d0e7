(** Canonical JSON report for lint diagnostics.

    Shared by the [cts_lint] driver and the tests: one function builds
    the canonical {!Obs_json.t} value (stable member order, diagnostics
    pre-sorted by the caller via {!Front.sort_diagnostics}), one writes
    it with explicit error handling so an unwritable [--json] path is a
    reported failure, not an uncaught exception. *)

val json_of : files_scanned:int -> Front.diagnostic list -> Obs_json.t
(** [{"files_scanned": n, "diagnostics": [{rule,file,line,col,message}]}]
    with members in exactly that order. *)

val write : path:string -> Obs_json.t -> (unit, string) result
(** Write pretty canonical JSON to [path]; ["-"] writes to stdout
    (followed by a flush) so the report can be piped. [Error msg]
    carries the system error for an unwritable path. *)
