(** Static linter ("verifier") for virtual-ISA programs.

    {!Isa.validate} only checks register ranges and buffer element types;
    this pass goes further and lints every program — compiler-generated
    and hand-scheduled Ninja alike — for:

    - register def-before-use, per register file, including the SPMD
      discipline: a register defined in a [Seq] phase holds its value on
      thread 0 only, so reading it from a [Par] phase is flagged (state
      must travel through buffers, as the compiler's spill convention does);
    - writes to the reserved registers ([Si 0]..[Si 2]);
    - mask discipline (masks are registers too: undefined-mask uses flag);
    - provable out-of-bounds accesses against declared buffer lengths,
      via a conservative interval analysis of scalar and lane indices —
      only accesses that are out of bounds on {e every} execution are
      reported, so strip-mined remainder handling never false-positives;
    - structural validity ({!Isa.validate} failures and duplicate buffer
      names are reported as issues instead of exceptions).

    The verifier is deliberately lenient where the code generator's idiom
    requires it: blending into an as-yet-undefined destination
    ([Vselectf (d, m, x, d)]) and lane insertion into a fresh register
    ([Vinsertf]) are treated as definitions, not reads. *)

type issue = { where : string; what : string }
(** One finding: [where] locates it (phase/statement path), [what] says
    what is wrong. *)

val pp_issue : issue Fmt.t
(** ["<where>: <what>"]. *)

val verify :
  ?width:int ->
  ?n_threads:int ->
  ?lengths:(string * int) list ->
  Isa.program ->
  issue list
(** [verify ~width ~n_threads ~lengths p] returns all issues found, in
    program order (deterministic). [lengths] gives element counts per
    buffer name; buffers without an entry are skipped by the bounds
    check. Defaults: [width = 4], [n_threads = 4], [lengths = []].
    Never raises. *)
