(* The simulator self-benchmark: how fast is the simulator itself?

   Every experiment number in this repository is deterministic, so the
   only performance that can regress is the wall-clock cost of producing
   them. This module measures simulated-ops-per-second over a grid of
   (benchmark, machine, ladder step) jobs, running each job in two
   configurations:

   - the *compiled* configuration — [Interp.Compiled], the decoded
     arrays threaded into chained closures by {!Ninja_vm.Compile} (the
     simulation default) over the fast-path cache hierarchy; and
   - the *baseline* configuration — [Interp.Tree] over the reference
     hierarchy ([~fast_path:false]), i.e. the simulator as it was before
     the fast paths existed.

   Both produce bit-identical reports (the whole timing report is
   compared structurally on every job), so the ops/s ratio is a pure
   like-for-like measure of the interpreter and cache-model overhead.
   Results aggregate per benchmark (summing ops and seconds across
   machines and steps) and the headline number is the geometric mean of
   per-benchmark ops/s, matching how the paper reports performance
   summaries. *)

module Machine = Ninja_arch.Machine
module Driver = Ninja_kernels.Driver
module Registry = Ninja_kernels.Registry
module Stats = Ninja_util.Stats
module Pool = Ninja_util.Pool
module Json = Ninja_report.Json

let schema_version = "ninja-selfbench/v5"

type job = { bench : Driver.benchmark; machine : Machine.t; step : Driver.step }

type job_result = {
  j_bench : string;
  j_machine : string;
  j_step : string;
  j_ops : int;  (** simulated instructions, identical in both configurations *)
  j_compiled_s : float;
  j_baseline_s : float;
}

type bench_result = {
  b_name : string;
  b_ops : int;
  b_compiled_s : float;
  b_baseline_s : float;
  b_compiled_ops_per_s : float;
  b_baseline_ops_per_s : float;
}

type result = {
  domains : int;
  wall_s : float;
  sched : Pool.stats;
  configurations : (string * string) list;
  jobs : job_result list;
  benchmarks : bench_result list;
  compiled_geomean_ops_per_s : float;
  baseline_geomean_ops_per_s : float;
  compiled_speedup : float;
}

type grid_result = {
  g_domains : int;
  g_jobs : int;
  g_cold_wall_s : float;
  g_cold_executed : int;
  g_cold_store_hits : int;
  g_cold_steals : int;
  g_warm_wall_s : float;
  g_warm_executed : int;
  g_warm_store_hits : int;
  g_warm_speedup : float;
}

(* Both ladder endpoints: "naive serial" exercises the scalar instruction
   mix, "ninja" the vector/intrinsics mix (every benchmark has both). *)
let default_steps = [ "naive serial"; "ninja" ]
let default_machines = [ Machine.westmere; Machine.knights_ferry ]

let jobs_of ~benchmarks ~machines ~steps =
  List.concat_map
    (fun (b : Driver.benchmark) ->
      let ladder = Experiments.ladder b ~scale:b.default_scale in
      List.concat_map
        (fun machine ->
          List.filter_map
            (fun step_name ->
              List.find_opt
                (fun (s : Driver.step) -> s.step_name = step_name)
                ladder
              |> Option.map (fun step -> { bench = b; machine; step }))
            steps)
        machines)
    benchmarks

(* Best-of-[repeats] timing, round-robin across the configurations: each
   job is tens of milliseconds and the host's slow periods (frequency
   scaling, hypervisor steal) last whole seconds, so timing one
   configuration's repeats back to back would let a single slow epoch
   bias that configuration's minimum. Interleaving the configurations
   per round spreads any epoch across all of them; the minimum over
   rounds is then a fair low-noise estimator for deterministic work. The
   simulated result is identical across repetitions. *)
let time_round_robin ~repeats fs =
  let n = Array.length fs in
  let reports = Array.map (fun f -> f ()) fs (* untimed warm-up runs *) in
  let best = Array.make n infinity in
  for _ = 1 to repeats do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        reports.(i) <- f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < best.(i) then best.(i) <- dt)
      fs
  done;
  (reports, best)

let run_job ~repeats { bench; machine; step } =
  let reports, best =
    time_round_robin ~repeats
      [|
        (fun () ->
          Driver.run_step ~strategy:Ninja_vm.Interp.Compiled ~machine step);
        (fun () ->
          Driver.run_step ~strategy:Ninja_vm.Interp.Tree ~fast_path:false
            ~machine step);
      |]
  in
  let compiled = reports.(0) and baseline = reports.(1) in
  (* the fast paths must not move a single reported number: the whole
     timing report — cycles, stalls, DRAM traffic, per-class counts —
     is compared structurally, not just the instruction total *)
  if compare compiled baseline <> 0 then
    invalid_arg
      (Fmt.str "Selfbench: %s/%s/%s: compiled backend changed the timing report"
         bench.Driver.b_name machine.Machine.name step.Driver.step_name);
  {
    j_bench = bench.Driver.b_name;
    j_machine = machine.Machine.name;
    j_step = step.Driver.step_name;
    j_ops = compiled.Ninja_arch.Timing.instructions;
    j_compiled_s = best.(0);
    j_baseline_s = best.(1);
  }

let aggregate ~benchmarks jobs =
  List.filter_map
    (fun (b : Driver.benchmark) ->
      match List.filter (fun j -> j.j_bench = b.Driver.b_name) jobs with
      | [] -> None
      | mine ->
          let sum f = List.fold_left (fun acc j -> acc +. f j) 0. mine in
          let ops =
            List.fold_left (fun acc j -> acc + j.j_ops) 0 mine
          in
          let compiled_s = sum (fun j -> j.j_compiled_s) in
          let baseline_s = sum (fun j -> j.j_baseline_s) in
          Some
            {
              b_name = b.Driver.b_name;
              b_ops = ops;
              b_compiled_s = compiled_s;
              b_baseline_s = baseline_s;
              b_compiled_ops_per_s = Stats.ratio (float_of_int ops) compiled_s;
              b_baseline_ops_per_s = Stats.ratio (float_of_int ops) baseline_s;
            })
    benchmarks

let run ?domains ?(repeats = 2) ?(benchmarks = Registry.all)
    ?(machines = default_machines) ?(steps = default_steps)
    ?(progress = fun _ -> ()) () =
  let domains =
    match domains with Some d -> max 1 d | None -> Pool.default_domains ()
  in
  let repeats = max 1 repeats in
  let jobs = jobs_of ~benchmarks ~machines ~steps in
  if jobs = [] then invalid_arg "Selfbench.run: empty job grid";
  let sched = ref None in
  let t0 = Unix.gettimeofday () in
  let results =
    Pool.map_list ~domains
      ~on_stats:(fun s -> sched := Some s)
      (fun j ->
        let r = run_job ~repeats j in
        progress r;
        r)
      jobs
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let per_bench = aggregate ~benchmarks results in
  let compiled_geomean_ops_per_s =
    Stats.geomean (List.map (fun b -> b.b_compiled_ops_per_s) per_bench)
  in
  let baseline_geomean_ops_per_s =
    Stats.geomean (List.map (fun b -> b.b_baseline_ops_per_s) per_bench)
  in
  let configurations =
    [
      ("compiled", Ninja_vm.Interp.strategy_tag Ninja_vm.Interp.Compiled);
      ("baseline", Ninja_vm.Interp.strategy_tag Ninja_vm.Interp.Tree);
    ]
  in
  {
    domains;
    wall_s;
    sched =
      (match !sched with
      | Some s -> s
      | None ->
          {
            Pool.domains;
            tasks_run = List.length results;
            steals = 0;
            cancelled = 0;
            busy_s = [| wall_s |];
            run_per_domain = [| List.length results |];
            max_depth = [| 0 |];
          });
    configurations;
    jobs = results;
    benchmarks = per_bench;
    compiled_geomean_ops_per_s;
    baseline_geomean_ops_per_s;
    compiled_speedup =
      Stats.ratio compiled_geomean_ops_per_s baseline_geomean_ops_per_s;
  }

(* Cold-vs-warm persistent-store benchmark: run the experiment grid twice
   against a throwaway store — once with an empty memo (cold: simulates
   and writes entries) and once more with the memo dropped again (warm:
   every job must come back from disk). A store of its own makes cold
   mean cold whatever the user's store holds. The in-process memo and
   any previously installed store are saved and restored, so this is
   safe to run from the harness without perturbing later work. *)

(* The fresh run of @bench-check's regression gate: two jobs of 40 ms
   and more, so their time is simulation rather than set-up (a fresh
   3 MB LLC model and the bindings, whose page faults make a ~7 ms job
   noisy), timed min-of-8 on one domain. *)
let smoke () =
  run ~domains:1 ~repeats:8
    ~benchmarks:[ Registry.find "NBody"; Registry.find "BackProjection" ]
    ~machines:[ Machine.westmere ] ~steps:[ "ninja" ] ()

let run_grid ?domains ?experiments () =
  let saved_store = Experiments.store () in
  let store = Store.scratch () in
  Fun.protect
    ~finally:(fun () ->
      Experiments.set_store saved_store;
      Experiments.reset_cache ();
      Store.destroy store)
    (fun () ->
      Experiments.set_store (Some store);
      Experiments.reset_cache ();
      let cold = Jobs.prefill ?domains ?experiments () in
      Experiments.reset_cache ();
      let warm = Jobs.prefill ?domains ?experiments () in
      {
        g_domains = cold.Jobs.domains;
        g_jobs = cold.Jobs.total_jobs;
        g_cold_wall_s = cold.Jobs.wall_s;
        g_cold_executed = cold.Jobs.executed;
        g_cold_store_hits = cold.Jobs.store_hits;
        g_cold_steals = cold.Jobs.sched.Pool.steals;
        g_warm_wall_s = warm.Jobs.wall_s;
        g_warm_executed = warm.Jobs.executed;
        g_warm_store_hits = warm.Jobs.store_hits;
        g_warm_speedup = Stats.ratio cold.Jobs.wall_s warm.Jobs.wall_s;
      })

(* A cold pass on a fresh store executes every job; fewer means some
   came from somewhere other than a simulation. *)
let check_grid g =
  if g.g_cold_executed < g.g_jobs then
    failwith
      (Fmt.str "cold grid run simulated %d of %d jobs" g.g_cold_executed g.g_jobs);
  if g.g_warm_executed <> 0 then
    failwith (Fmt.str "warm grid rerun simulated %d jobs; store failed" g.g_warm_executed)

let num_i i = Json.Num (float_of_int i)

let sched_to_json (s : Pool.stats) =
  Json.Obj
    [
      ("domains", num_i s.Pool.domains);
      ("tasks_run", num_i s.Pool.tasks_run);
      ("steals", num_i s.Pool.steals);
      ("cancelled", num_i s.Pool.cancelled);
      ( "busy_s",
        Json.List (Array.to_list (Array.map (fun x -> Json.Num x) s.Pool.busy_s))
      );
      ( "run_per_domain",
        Json.List (Array.to_list (Array.map num_i s.Pool.run_per_domain)) );
      ("max_depth", Json.List (Array.to_list (Array.map num_i s.Pool.max_depth)));
    ]

let grid_to_json g =
  Json.Obj
    [
      ("domains", num_i g.g_domains);
      ("jobs", num_i g.g_jobs);
      ("cold_wall_s", Json.Num g.g_cold_wall_s);
      ("cold_executed", num_i g.g_cold_executed);
      ("cold_store_hits", num_i g.g_cold_store_hits);
      ("cold_steals", num_i g.g_cold_steals);
      ("warm_wall_s", Json.Num g.g_warm_wall_s);
      ("warm_executed", num_i g.g_warm_executed);
      ("warm_store_hits", num_i g.g_warm_store_hits);
      ("warm_speedup", Json.Num g.g_warm_speedup);
    ]

let to_json ?grid r =
  Json.Obj
    ([
      ("schema", Json.Str schema_version);
      ("jobs", Json.Num (float_of_int (List.length r.jobs)));
      ("domains", Json.Num (float_of_int r.domains));
      ("sched", sched_to_json r.sched);
      ("wall_s", Json.Num r.wall_s);
      ( "configurations",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.configurations) );
      ("compiled_geomean_ops_per_s", Json.Num r.compiled_geomean_ops_per_s);
      ("baseline_geomean_ops_per_s", Json.Num r.baseline_geomean_ops_per_s);
      ("compiled_speedup", Json.Num r.compiled_speedup);
      (* per-job timings so external checkers (tools/bench_check.ml) can
         compare like-for-like jobs across reports with different grids *)
      ( "job_times",
        Json.List
          (List.map
             (fun j ->
               Json.Obj
                 [
                   ("bench", Json.Str j.j_bench);
                   ("machine", Json.Str j.j_machine);
                   ("step", Json.Str j.j_step);
                   ("ops", Json.Num (float_of_int j.j_ops));
                   ("compiled_s", Json.Num j.j_compiled_s);
                   ("baseline_s", Json.Num j.j_baseline_s);
                 ])
             r.jobs) );
      ( "benchmarks",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("name", Json.Str b.b_name);
                   ("ops", Json.Num (float_of_int b.b_ops));
                   ("compiled_ops_per_s", Json.Num b.b_compiled_ops_per_s);
                   ("baseline_ops_per_s", Json.Num b.b_baseline_ops_per_s);
                   ("wall_s", Json.Num (b.b_compiled_s +. b.b_baseline_s));
                 ])
             r.benchmarks) );
    ]
    @ match grid with None -> [] | Some g -> [ ("grid", grid_to_json g) ])

let write_json ?grid ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json ?grid r)))

let pp_result ppf r =
  Fmt.pf ppf "self-benchmark: %d jobs on %d domain%s in %.1fs@."
    (List.length r.jobs) r.domains
    (if r.domains = 1 then "" else "s")
    r.wall_s;
  List.iter
    (fun b ->
      Fmt.pf ppf "  %-16s %10.0f ops/s compiled  (baseline %10.0f, %.2fx)@."
        b.b_name b.b_compiled_ops_per_s b.b_baseline_ops_per_s
        (b.b_compiled_ops_per_s /. b.b_baseline_ops_per_s))
    r.benchmarks;
  Fmt.pf ppf "  geomean: %.0f ops/s compiled over %.0f baseline — %.2fx@."
    r.compiled_geomean_ops_per_s r.baseline_geomean_ops_per_s
    r.compiled_speedup;
  Fmt.pf ppf "  %a" Pool.pp_stats r.sched

let pp_grid ppf g =
  Fmt.pf ppf
    "store grid: %d jobs on %d domain%s: cold %.1fs (%d simulated, %d steals) \
     -> warm %.2fs (%d simulated, %d store hits) — %.1fx"
    g.g_jobs g.g_domains
    (if g.g_domains = 1 then "" else "s")
    g.g_cold_wall_s g.g_cold_executed g.g_cold_steals g.g_warm_wall_s
    g.g_warm_executed g.g_warm_store_hits g.g_warm_speedup
