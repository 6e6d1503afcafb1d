(* grid-cold / grid-warm: one run of the full experiment grid plus every
   table, as `ninja_cli experiments -j 2` does it, in this (fresh)
   process against the store directory given by run.py — empty for
   grid-cold, populated by a previous cold run for grid-warm.

   The untraced run makes the same library calls as the CLI: open the
   store, prefill the whole grid on 2 domains, render every experiment.
   The traced run splits the same work into its layers from outside:
   ladders, then tuning sessions (both on 2-domain pools), the rest of
   the grid, T4's profiles, table rendering — and then times the store's
   key/load/save calls over every grid job. *)

open Bench_util
module E = Ninja_core.Experiments
module Jobs = Ninja_core.Jobs
module Store = Ninja_core.Store
module Pool = Ninja_util.Pool
module Driver = Ninja_kernels.Driver

let domains = 2

(* The experiment tables, rendered exactly as test/golden_experiments.txt
   (tools/gen_experiments_golden.ml) renders them. *)
let render_all () =
  E.all
  |> List.concat_map (fun (e : E.experiment) ->
         Fmt.str "## %s — %s (%s)@." (String.uppercase_ascii e.id) e.title e.claim
         :: List.map (Fmt.str "%a" Ninja_report.Table.render) (e.run ()))
  |> String.concat "\n"

(* Per-job wall times of the realized schedule, from the prefill's
   Chrome trace. *)
let job_latencies_ms path =
  match Json.member "traceEvents" (Json.parse (read_file path)) with
  | Some (Json.List evs) ->
      List.filter_map
        (fun ev -> Option.bind (Json.member "dur" ev) Json.to_float |> Option.map (fun us -> us /. 1e3))
        evs
  | _ -> []

(* Simulated instructions of the grid's naive-serial and ninja reports
   (read back from the memo: no simulation). *)
let instructions_by_half jobs =
  List.fold_left
    (fun (s, v) (j : Jobs.job) ->
      let n () = (E.run_step_cached ~machine:j.machine j.bench j.step).instructions in
      match j.step with
      | "naive serial" -> (s + n (), v)
      | "ninja" -> (s, v + n ())
      | _ -> (s, v))
    (0, 0) jobs

(* Map [f] over [xs] on a 2-domain pool, each task's spans parented to
   the calling span. Returns the results and (pool stats, pool wall). *)
let on_pool f xs =
  let parent = Span.current () in
  let stats = ref None in
  let ys, wall =
    timed (fun () ->
        Pool.map_list ~domains ~on_stats:(fun s -> stats := Some s)
          (fun x -> Span.in_task parent (fun () -> f x))
          xs)
  in
  (ys, Option.to_list (Option.map (fun s -> (s, wall)) !stats))

(* Traced only, before the prefill: every ladder, then every tuning
   session, each set on a 2-domain pool. Returns per-benchmark ladder
   seconds, (tuner seconds, candidates, simulated), and the pools. *)
let ladders_then_tuner jobs =
  let benches = Ninja_kernels.Registry.all in
  let times, p1 =
    Span.with_span ~layer:"util" "pool: ladders" (fun () ->
        on_pool
          (fun (i, (b : Driver.benchmark)) ->
            Span.with_span ~group:i ~layer:"kernels" ("Experiments.ladder:" ^ b.b_name) (fun () ->
                snd (timed (fun () -> ignore (E.ladder b ~scale:b.default_scale)))))
          (List.mapi (fun i b -> (i, b)) benches))
  in
  let tuned = List.filter (fun (j : Jobs.job) -> j.step = "tuned") jobs in
  let sessions, p2 =
    Span.with_span ~layer:"util" "pool: tuner" (fun () ->
        on_pool
          (fun (i, (j : Jobs.job)) ->
            Span.with_span ~group:i ~layer:"core" ("Experiments.tuned_result:" ^ j.bench.b_name)
              (fun () -> timed (fun () -> E.tuned_result ~machine:j.machine j.bench)))
          (List.mapi (fun i j -> (i, j)) tuned))
  in
  let tuner =
    List.fold_left
      (fun (t, c, s) ((r : Ninja_core.Tuner.t), dt) ->
        (t +. dt, c + List.length r.t_candidates, s + r.t_simulated))
      (0., 0, 0) sessions
  in
  (List.map2 (fun (b : Driver.benchmark) t -> (b.b_name, t)) benches times, tuner, p1 @ p2)

let run ~store_dir ~expect ~golden ~tables_out ~sched_out ~probe_dir ~trace =
  let st = Store.open_ ~dir:store_dir () in
  E.set_store (Some st);
  let jobs = Jobs.all_jobs () in
  Span.enabled := trace;
  let root = if trace then Some (Span.start ~layer:"bench" "traced run") else None in
  let (ladders, tuner, pools), summary, t4_s, (tables, render_s) =
    Span.with_span ~layer:"core" "grid" (fun () ->
        let before = if trace then ladders_then_tuner jobs else ([], (0., 0, 0), []) in
        let summary =
          Span.with_span ~layer:"core" "Jobs.prefill" (fun () ->
              Jobs.prefill ~domains ~experiments:E.all ~sched_trace:sched_out ())
        in
        let t4_s =
          if trace then
            snd
              (timed (fun () ->
                   Span.with_span ~layer:"profile" "T4 profiles" (fun () ->
                       ignore (Lazy.force E.t4_profiles))))
          else 0.
        in
        (before, summary, t4_s, timed (fun () -> Span.with_span ~layer:"report" "render tables" render_all)))
  in
  write_file tables_out tables;
  if tables <> read_file golden then fail "grid tables differ from %s" golden;
  let executed = snd (E.cache_stats ()) and store_hits = E.store_hit_count () in
  (match expect with
  | "cold" ->
      (* two domains may race to simulate one key (a tuning session's
         baseline rung and the grid job itself): both count *)
      if executed < summary.total_jobs || store_hits <> 0 then
        fail "cold grid executed %d of %d jobs with %d store hits (want all, 0)" executed
          summary.total_jobs store_hits
  | _ -> if executed <> 0 then fail "warm grid executed %d jobs (want 0)" executed);
  let layers =
    if not trace then []
    else begin
      let key_s, load_s, save_s =
        Store_calls.time_calls st ~probe_dir
          (List.filter_map
             (fun (j : Jobs.job) -> if j.step = "tuned" then None else Some (j.bench, j.machine, j.step))
             jobs)
      in
      let lang = Frontend.census () in
      Option.iter Span.finish root;
      let ss = Store.stats st in
      let busy, idle, steals =
        List.fold_left
          (fun (busy, idle, steals) ((s : Pool.stats), wall) ->
            let b = Array.fold_left ( +. ) 0. s.busy_s in
            (busy +. b, idle +. ((float_of_int s.domains *. wall) -. b), steals + s.steals))
          (0., 0., 0)
          ((summary.sched, summary.wall_s) :: pools)
      in
      let tuner_s, candidates, simulated = tuner in
      (("kernels.ladder_s", List.fold_left (fun a (_, t) -> a +. t) 0. ladders, "s")
      :: List.map (fun (n, t) -> ("kernels.ladder_s." ^ n, t, "s")) ladders)
      @ lang
      @ [
          ("core.tuner_s", tuner_s, "s");
          ("core.tuner.candidates", float_of_int candidates, "count");
          ("core.tuner.simulated", float_of_int simulated, "count");
          ("core.store.key_s", key_s, "s");
          ("core.store.load_s", load_s, "s");
          ("core.store.save_s", save_s, "s");
          ("core.store.hits", float_of_int ss.hits, "count");
          ("core.store.misses", float_of_int ss.misses, "count");
          ("core.store.writes", float_of_int ss.writes, "count");
          ("core.store.errors", float_of_int ss.errors, "count");
          ("util.pool.busy_s", busy, "s");
          ("util.pool.idle_s", idle, "s");
          ("util.pool.steals", float_of_int steals, "count");
          ("core.grid.executed", float_of_int executed, "count");
          ("core.grid.store_hits", float_of_int store_hits, "count");
          ("profile.t4_s", t4_s, "s");
          ("report.render_s", render_s, "s");
          ("host.peak_rss_mb", peak_rss_mb (), "MB");
        ]
    end
  in
  Span.enabled := false;
  let lat = job_latencies_ms sched_out in
  let scalar_instr, vector_instr = instructions_by_half jobs in
  {
    correct = true;
    attempted = summary.total_jobs;
    failed = 0;
    metrics =
      [
        ("jobs", float_of_int summary.total_jobs, "count");
        ("scalar_instructions", float_of_int scalar_instr, "count");
        ("vector_instructions", float_of_int vector_instr, "count");
        ("p50_ms", percentile 0.50 lat, "ms");
        ("p99_ms", percentile 0.99 lat, "ms");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ]
      @ layers;
    details =
      [
        ("executed", Json.Num (float_of_int executed));
        ("store_hits", Json.Num (float_of_int store_hits));
        ("latency_samples", Json.Num (float_of_int (List.length lat)));
        ("beyond_p99", Json.Num (float_of_int (beyond 0.99 lat)));
      ];
  }
