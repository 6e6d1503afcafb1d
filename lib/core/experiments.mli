(** The paper's evaluation, regenerated.

    Each experiment returns rendered tables (see DESIGN.md for the mapping
    from experiment ids to the paper's claims). Results are deterministic;
    simulated runs are memoized within a process, so running several
    experiments shares the underlying simulations. Experiments themselves
    are pure table formatting: every simulation they read is declared up
    front by [needs], so {!Jobs.prefill} can execute the whole grid on a
    domain pool before any table is rendered. *)

type job = Ninja_arch.Machine.t * Ninja_kernels.Driver.benchmark * string
(** One simulation: (machine, benchmark, ladder-step name). The memo key is
    [(machine.name, benchmark.b_name, step_name)]. *)

type experiment = {
  id : string;  (** stable id: "t1", "f1" ... "a1" *)
  title : string;
  claim : string;  (** which abstract claim it reproduces *)
  needs : unit -> job list;
      (** the closed set of simulations [run] reads (possibly with
          duplicates; dedup is the caller's job) *)
  run : unit -> Ninja_report.Table.t list;
}

val all : experiment list
(** In presentation order: T1, F1..F8, T2..T4, T6, T7, A1. T4 (measured
    cycle attribution) runs its simulations under the profiler, outside
    the memo cache — its [needs] is empty by design; {!Jobs.prefill}
    runs those profiled simulations ({!t4_runs}) on its pool alongside
    the grid whenever its experiments include T4. *)

val t4_runs : (Ninja_arch.Machine.t * Ninja_kernels.Driver.benchmark) list
(** The profiled simulations behind T4, in table order: the ninja
    variant of every benchmark on Westmere, then on Knights Ferry. *)

val t4_profile :
  Ninja_arch.Machine.t -> Ninja_kernels.Driver.benchmark -> Ninja_profile.Profile.t
(** One of {!t4_runs}: the benchmark's ninja step at its default scale,
    simulated under the profiler. Pure and domain-safe; it reads no
    memoized report and leaves {!cache_stats} untouched. *)

val t4_profiles :
  (Ninja_arch.Machine.t * Ninja_profile.Profile.t list) list Lazy.t
(** The ninja-variant profiles behind T4, grouped by machine, memoized
    for the process — also the data source for the report-sync tooling
    and tests that compare measured bottleneck classes with the timing
    reports'. Forcing it takes the profiles a {!Jobs.prefill} computed
    on its pool ({!set_t4_profiles}); when nothing was prefilled it
    profiles {!t4_runs} serially in the calling domain. Force it from
    one domain only. *)

val t4_pending : unit -> bool
(** [true] while T4's profiles are neither forced nor prefilled — what
    {!Jobs.prefill} checks before scheduling {!t4_runs}. *)

val set_t4_profiles : Ninja_profile.Profile.t list -> unit
(** Hand {!t4_profiles} one profile per element of {!t4_runs}, in that
    order (as {!Jobs.prefill} does). The first call wins; a call after
    the lazy was forced has no effect.
    @raise Invalid_argument on a list of the wrong length. *)

val find : string -> experiment
(** Lookup by id (case-insensitive). Raises [Not_found]. *)

val gap : Ninja_arch.Timing.report -> Ninja_arch.Timing.report -> float
(** [gap naive best] = modeled-seconds ratio (how much faster [best] is). *)

val ladder :
  Ninja_kernels.Driver.benchmark -> scale:int -> Ninja_kernels.Driver.step list
(** [bench.steps ~scale], memoized per process. Building a ladder runs
    the compiler pipeline over every variant and generates the
    benchmark's dataset (on a 2-vCPU x86-64 host, 0.1 s or less per
    benchmark except TreeSearch's 8.4M-key tree, about 1 s); it is a
    pure function of its arguments, so all callers share one
    construction. Domain-safe. *)

val run_step_cached :
  machine:Ninja_arch.Machine.t ->
  Ninja_kernels.Driver.benchmark ->
  string ->
  Ninja_arch.Timing.report
(** Simulate one named ladder step of a benchmark at its default scale,
    memoized on (machine name, benchmark, step). The synthetic step name
    ["tuned"] runs (and memoizes) a whole {!tuned_result} session and
    returns its winner's report. Domain-safe: the cache is
    mutex-protected; the simulation itself runs outside the lock. *)

val tuned_result :
  ?domains:int ->
  machine:Ninja_arch.Machine.t ->
  Ninja_kernels.Driver.benchmark ->
  Tuner.t
(** The full tuning session behind the ["tuned"] rung (candidates,
    per-loop decisions, baselines), at the benchmark's default scale,
    memoized per (machine name, benchmark) and cleared by
    {!reset_cache}. Baseline rungs are read through {!run_step_cached};
    candidate simulations are memoized in the installed {!Store} (if
    any) under the ["tuned"] step tag. [domains] (default [1]) sizes
    the pool the candidate search runs on; the result is independent
    of it. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] since start / the last {!reset_cache}. A miss is a
    simulation executed for a key not yet in the memo; a hit is a
    memoized read, or a racing domain's duplicate computation of a key
    another domain published first. Jobs served by the persistent store
    count as neither (see {!store_hit_count}). *)

val store_hit_count : unit -> int
(** Jobs served by the persistent {!Store} (no simulation, no memo hit)
    since start / the last {!reset_cache}. *)

val reset_cache : unit -> unit
(** Drop all memoized reports and zero the hit/miss/store counters
    (tests). The persistent store, if set, is untouched. *)

val set_store : Store.t option -> unit
(** Install (or clear) the persistent result store consulted below the
    in-memory memo: on a memo miss, a verified disk entry replaces the
    simulation; every simulation that does run is written back with its
    measured cost. Set once at startup, before parallel work begins. *)

val store : unit -> Store.t option
(** The currently installed store. *)
