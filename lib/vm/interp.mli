(** Functional interpreter for the vector ISA.

    Executes a program against a {!Memory.t} with a configurable thread
    count and vector width, producing per-class instruction counts and
    (optionally) a memory-access stream for the timing model: an
    allocation-free {!Event.hook} ([?access]) or a record-level
    {!Event.sink} ([?sink]).

    [Par] phases execute thread-after-thread, which equals true parallel
    execution for race-free programs; [~check_races:true] verifies that
    property at element granularity and raises {!Race} otherwise.

    Two execution strategies produce bit-identical results: [Tree] walks
    the structured program (the reference), and [Compiled] — the default
    — threads {!Decode}'s flat op arrays into chained closures via
    {!Compile}. *)

exception Trap of string
(** Runtime fault: out-of-bounds access, division by zero, bad lane index,
    non-positive loop step, or fuel exhaustion. (Alias of
    [Memory.Trap].) *)

exception Race of string list
(** Raised at a phase barrier when [check_races] found conflicting accesses
    (up to 16 descriptions). *)

type result = {
  counts : Counts.t;  (** dynamic instruction counts, per thread and class *)
  instructions : int;  (** total dynamic instructions *)
}

type strategy =
  | Tree  (** walk the structured statement tree (reference walker) *)
  | Compiled
      (** decode, then compile each phase into chained pre-resolved
          closures ({!Compile}: threaded code, basic-block
          superinstructions, batched bookkeeping) — the production
          backend, observables bit-identical to [Tree] *)

val default_strategy : unit -> strategy
(** The strategy simulations run with when none is requested explicitly:
    [Compiled]. {!Timing.simulate} (and through it experiments, the
    ladder, the benchmarks and the serve layer) resolves an absent
    [?strategy] to this. *)

val strategy_tag : strategy -> string
(** Stable identity string (["tree"], ["compiled"]), disjoint per
    backend, embedded into persistent-store keys. *)

(** Final architectural state of one thread: scalar int/float files and
    vector float/int/mask files (one array per register, one slot per
    lane). Exposed read-only via [on_states] so differential tests can
    compare strategies; aliasing the arrays after [run] returns is
    unspecified. *)
type thread_state = {
  si : int array;  (** scalar integer registers *)
  sf : float array;  (** scalar float registers *)
  vf : float array array;  (** vector float registers *)
  vi : int array array;  (** vector integer registers *)
  vm : bool array array;  (** vector mask registers *)
}

val session :
  ?n_threads:int ->
  ?width:int ->
  ?access:Event.hook ->
  ?sink:Event.sink ->
  ?trace:Trace.sink ->
  ?fuel:int ->
  ?check_races:bool ->
  ?strategy:strategy ->
  ?decoded:Decode.t ->
  ?on_states:(thread_state array -> unit) ->
  Isa.program ->
  Memory.t ->
  unit ->
  result
(** [session program memory] validates the program and performs all
    per-program work once — decode, closure compilation, executor
    selection — returning a launch thunk. Each call
    of the thunk is one kernel launch against the same memory, with
    counts, fuel and the register files freshly reset: a sequence of
    thunk calls is observably identical to the same sequence of {!run}
    calls, but multi-launch steps no longer pay the per-program costs on
    every launch. Parameters are those of {!run}. *)

val run :
  ?n_threads:int ->
  ?width:int ->
  ?access:Event.hook ->
  ?sink:Event.sink ->
  ?trace:Trace.sink ->
  ?fuel:int ->
  ?check_races:bool ->
  ?strategy:strategy ->
  ?decoded:Decode.t ->
  ?on_states:(thread_state array -> unit) ->
  Isa.program ->
  Memory.t ->
  result
(** [run program memory] validates and executes the program — a
    single-launch {!session}.

    @param n_threads SPMD thread count for [Par] phases (default 1).
    @param width vector lane count (default 4).
    @param access receives every memory access as it happens, as
      immediates: the modeled address is precomputed and nothing is
      allocated per access. The timing model's cache walk.
    @param sink receives every memory access as an {!Event.t} record,
      built per access only because a sink is attached (tests, tools).
      With [access], [sink] and [check_races] in any combination, one
      hook is built per session and calls the race tracker, then
      [access], then [sink].
    @param trace receives profiling events (scope enter/exit for phases and
      [Region]s, one {!Trace.Op} per dynamic instruction, SIMD
      lane-utilization per masked vector memory access). Adds no work when
      absent.
    @param fuel optional dynamic-instruction budget; exceeding it traps
      (useful to bound buggy [While] loops in tests).
    @param check_races track per-phase read/write sets and raise {!Race}
      on cross-thread conflicts (costly; meant for tests).
    @param strategy execution strategy (default [Compiled]).
    @param decoded compile and run this pre-supplied flat form instead of
      decoding [program] ([program] must be the one it was decoded
      from); [strategy] is then ignored. Meant for tests that execute
      hand-transformed — or deliberately broken — op arrays, e.g. the
      compiler's mutation differentials.
    @param on_states called once after the last phase with the final
      per-thread register state (index = thread id); meant for
      differential tests. *)
