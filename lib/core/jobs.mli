(** The experiment job grid: the closed set of (machine, benchmark, step)
    simulations every experiment reads, executed across a pool of worker
    domains ({!Ninja_util.Pool}) into the shared memo cache.

    The grid is deterministic: jobs are enumerated in a fixed order
    (experiment presentation order, first occurrence wins on duplicates)
    and each job is an independent pure simulation, so the memoized
    reports — and therefore every rendered table — are byte-identical
    whatever the domain count or scheduling interleaving.

    Scheduling is cost-aware: jobs are seeded across the pool's deques
    longest-expected-first (LPT), using per-step mean simulation costs
    recorded in the persistent {!Store} by prior runs when one is
    installed ({!Experiments.set_store}), and a static ladder-rank
    heuristic otherwise; work stealing absorbs estimation error. *)

type job = {
  machine : Ninja_arch.Machine.t;
  bench : Ninja_kernels.Driver.benchmark;
  step : string;
}

val all_jobs : ?experiments:Experiments.experiment list -> unit -> job list
(** The deduplicated grid for the given experiments (default: all of
    {!Experiments.all}), in deterministic enumeration order. *)

val schedule_order : (string * float) list -> job list -> job list
(** [schedule_order step_costs jobs]: [jobs] stably sorted by descending
    expected cost — [step_costs] (per-step mean seconds, see
    {!Store.step_costs}) where available, a static ladder-rank heuristic
    for steps never measured. Exposed for tests; {!prefill} applies it
    automatically. *)

type class_stat = {
  step_name : string;  (** ladder step ("naive serial" ... "ninja") *)
  jobs : int;  (** jobs of this class executed or found cached *)
  wall_s : float;  (** summed per-job wall-clock, seconds *)
}

type summary = {
  domains : int;  (** pool size used *)
  total_jobs : int;  (** grid size after dedup *)
  executed : int;  (** simulations actually run (cache misses) *)
  hits : int;  (** jobs already present in the memo cache *)
  store_hits : int;  (** jobs served from the persistent store *)
  profiled : int;
      (** T4 profiled runs computed on the same pool (0 or the length of
          {!Experiments.t4_runs}); not grid jobs, so outside every count
          above *)
  wall_s : float;  (** whole-prefill wall clock, seconds *)
  per_class : class_stat list;  (** by ladder step, fixed ladder order *)
  sched : Ninja_util.Pool.stats;
      (** scheduler counters: steals, per-domain busy time and task
          counts, peak queue depths (synthetic single-domain snapshot
          when the serial path ran) *)
}

val prefill :
  ?domains:int ->
  ?experiments:Experiments.experiment list ->
  ?verbose:bool ->
  ?sched_trace:string ->
  unit ->
  summary
(** Run the grid on [domains] workers (default
    {!Ninja_util.Pool.default_domains}; [1] = serial in the calling
    domain) and populate {!Experiments.run_step_cached}'s memo cache.
    After a prefill, running the covered experiments performs no further
    simulation. When a persistent store is installed, jobs hit it before
    simulating, every executed simulation is written back, and the
    measured per-step costs are flushed for the next run's scheduling.
    With [~verbose:true] the summary is also printed to stderr; the
    default is quiet, so library callers keep a clean error stream.
    [sched_trace], if given, writes a Chrome trace_event JSON of the
    realized schedule (one span per grid job on its executing domain's
    track, same dialect as {!Ninja_profile.Chrome}) to that path.

    When [experiments] include T4 and its profiles are still pending
    ({!Experiments.t4_pending}), the pool also runs T4's profiled
    simulations ({!Experiments.t4_runs}), interleaved with the grid
    jobs by expected cost, and hands them to
    {!Experiments.set_t4_profiles}, so rendering T4 afterwards simulates
    nothing. They bypass the memo: [total_jobs], [executed] and
    {!Experiments.cache_stats} count grid jobs only, and a warm grid
    still executes zero jobs. With [domains = 1] they run serially in the
    calling domain, like the grid. *)

val profile_t4 :
  ?domains:int -> unit -> Ninja_profile.Profile.t list
(** T4's profiled runs computed afresh on [domains] workers (default
    {!Ninja_util.Pool.default_domains}) by the same task runner
    {!prefill} uses, one profile per element of {!Experiments.t4_runs}
    in that order. Neither reads nor fills the memo behind
    {!Experiments.t4_profiles}; for comparing pool widths. *)

val pp_summary : Format.formatter -> summary -> unit
(** Multi-line, human-oriented; contains wall-clock times, so callers keep
    it out of deterministic output streams (the CLI sends it to stderr). *)
