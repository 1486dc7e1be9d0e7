(** Physical-units static checker over the CTS float domain.

    Every quantity in the synthesis pipeline is dimensioned float
    arithmetic — the delay surfaces map (slew ps, length um) to
    (delay ps, slew ps), merge-routing trades micrometres against
    picoseconds — but in the source each is a bare [float], so a
    ps<->um mix-up type-checks silently. This pass runs a
    flow-insensitive but interprocedural dimension inference over the
    parsetree (compiler-libs, no typer) and reports:

    - {b U1} — unit-mismatch arithmetic: [+.], [-.], [min], [max]
      combining two operands of known, different units; a function
      argument whose inferred unit differs from the callee's declared
      or inferred parameter unit; a record field constructed or
      assigned with a value of the wrong unit. [*.] and [/.] never
      mismatch — they compose exponent vectors ([ohm *. ff] is [ps],
      [um *. um] is [um2], [um /. ps_per_um]... and [sqrt um2] is
      [um]).
    - {b U2} — unit-mismatch comparison: [<] [>] [<=] [>=] [=] [<>]
      [compare] [Float.equal] and the [Numerics.Float_cmp] helpers
      ([approx_eq], [definitely_lt], [cmp]) applied to operands of
      known, different units.
    - {b U3} — unannotated public float: a bare [float] in a [val]
      signature or record field of an [.mli] under [lib/delaylib],
      [lib/cts_core], [lib/dme] or [lib/ctree] that neither carries
      [(float[@cts.unit "..."])] nor has a self-describing name the
      convention below resolves. Also flags a [@cts.unit] payload
      that is not one of the seven unit names, anywhere.
    - {b U4} — suspicious literal: [+.]/[-.] combining a value of
      known non-dimensionless unit with a bare nonzero float literal,
      unless an enclosing expression / binding carries
      [[@cts.unit_ok]] (zero is unit-polymorphic and always fine).

    Units are the nominal dimension tags [ps], [um], [ff], [ohm]
    (= ps/ff, so Elmore products compose), [ps_per_um], [um2] and
    [dimensionless], represented internally as integer exponent
    vectors over (time, length, capacitance). The checker tracks
    dimension, not scale: the runtime may compute in seconds and
    farads, and a ps<->um swap is a dimension error while ps<->s is
    not.

    Seeding: [.mli] [val] declarations and record fields, from the
    [[@cts.unit]] attribute when present, else from the naming
    convention applied to the nearest enclosing name (argument label,
    field name, value name): suffixes [_ps]/[_um]/[_ff]/[_ohm]/[_res];
    substrings [slew]/[delay]/[latenc]/[skew]/[offset] (ps),
    [len]/[dist]/[snak]/[wirelength] (um), [cap] (ff, except
    [capacity], which names a delay budget in merge-routing),
    [resist] (ohm). The same convention names local lets, function
    parameters and match bindings inside implementations.

    Inference is conservative: unknown propagates silently and a
    diagnostic requires {e both} sides of an operation to have known,
    different dimensions. Flow-insensitivity is enough because the
    repository's floats are dimensionally homogeneous per name — a
    variable never holds ps at one program point and um at another
    (that would already be a bug this pass exists to catch).

    Interprocedural: silent passes over all implementations build unit
    schemes (parameter and result units) for unannotated top-level
    values before the emitting pass runs, so call sites are checked
    against inferred signatures across files and forward references.
    The silent passes run on {!Front.fixpoint} until the scheme table
    stops changing (at most ten rounds: a branch join can send a scheme
    back to unknown), so a unit crosses a call chain of up to ten
    definitions whatever the file order.

    Scoping (on {!Front.normalize_path}-normalized paths): U3 is
    restricted to the four core interface directories above; U1, U2
    and U4 apply to every analyzed file under [lib/] and [bin/].

    Domain-safety: pure analysis over in-memory sources; no shared
    mutable state escapes {!check}. *)

val check : Front.t -> Front.diagnostic list
(** U1–U4 over the parsed sources: [.mli] entries seed schemes and
    carry U3, [.ml] entries U1/U2/U4. Unsorted; {!Lint.run} sorts. *)
