(** Memory-access events emitted by the interpreter and consumed by the
    timing model's cache hierarchy.

    An access reaches its consumers through one {!hook}: a function of
    immediates only, so calling it allocates nothing. {!Interp.session}
    builds the hook once from whatever is attached — an [?access] hook
    (the timing model's cache walk), the race tracker, a record-level
    {!sink} — and every memory op, compiled or tree-walked, calls it with
    its precomputed modeled address. The {!t} record exists only for
    {!sink}s: {!hook_of_sink} builds one per access, so a run pays for
    records exactly when a sink is attached. *)

type kind = Read | Write

type t = {
  thread : int;
  addr : int;  (** modeled byte address (see {!Memory.address}) *)
  bytes : int;  (** may span several cache lines for vector accesses *)
  kind : kind;
  chain : bool;
      (** the address depended on a previous load (pointer chasing): miss
          latency cannot be hidden by memory-level parallelism *)
  nt : bool;  (** non-temporal store: bypasses the cache hierarchy *)
}

type sink = t -> unit
(** Record-level consumer of access events (tests, tracing tools). *)

type hook =
  thread:int -> addr:int -> bytes:int -> write:bool -> chain:bool -> nt:bool -> unit
(** Allocation-free consumer of one access: the fields of {!t}, unboxed,
    with [write] for [kind = Write]. Hooks must be defined with all six
    parameters (not by partial application) so that a call from compiled
    code is one direct jump. *)

val ignore_access : hook
(** The hook of a run with no consumer attached. *)

val hook_of_sink : sink -> hook
(** Adapt a record-level sink: builds the {!t} for each access. *)

val pp : t Fmt.t
(** Debug rendering of one access event. *)
