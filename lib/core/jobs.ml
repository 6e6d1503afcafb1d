module Machine = Ninja_arch.Machine
module Driver = Ninja_kernels.Driver
module Pool = Ninja_util.Pool
module Json = Ninja_report.Json
module E = Experiments

type job = { machine : Machine.t; bench : Driver.benchmark; step : string }

let key j = (j.machine.Machine.name, j.bench.Driver.b_name, j.step)

let all_jobs ?(experiments = E.all) () =
  let seen = Hashtbl.create 256 in
  List.concat_map (fun (e : E.experiment) -> e.needs ()) experiments
  |> List.filter_map (fun (machine, bench, step) ->
         let j = { machine; bench; step } in
         if Hashtbl.mem seen (key j) then None
         else begin
           Hashtbl.add seen (key j) ();
           Some j
         end)

type class_stat = { step_name : string; jobs : int; wall_s : float }

type summary = {
  domains : int;
  total_jobs : int;
  executed : int;
  hits : int;
  store_hits : int;
  profiled : int;
  wall_s : float;
  per_class : class_stat list;
  sched : Pool.stats;
}

(* Fixed presentation order for per-class stats; unknown steps (none
   today) would sort after the ladder. *)
let ladder_order =
  [ "naive serial"; "+autovec"; "+parallel"; "+algorithmic"; "tuned"; "ninja" ]

let class_rank s =
  let rec go i = function
    | [] -> (List.length ladder_order, s)
    | x :: tl -> if x = s then (i, s) else go (i + 1) tl
  in
  go 0 ladder_order

(* ------------------------------------------------------------------ *)
(* Cost estimates for longest-expected-first seeding                    *)

(* Fallback when the store has no recorded costs yet: a static rank of
   how expensive each ladder step is to *simulate*. The hand-tuned ninja
   variants and the +algorithmic rewrites run big vector workloads (and
   on MIC, many modeled threads); naive serial executes the most dynamic
   instructions per element; the compiler steps sit between. The exact
   numbers only matter relative to each other. *)
let static_cost = function
  | "tuned" -> 6. (* a whole candidate search: the priciest job class *)
  | "ninja" -> 5.
  | "+algorithmic" -> 4.
  | "naive serial" -> 3.
  | "+parallel" -> 2.
  | "+autovec" -> 1.
  | _ -> 0.5

let estimate step_costs step =
  match List.assoc_opt step step_costs with
  | Some c when c > 0. -> c
  | _ -> static_cost step

(* Descending expected cost, stable on the deterministic enumeration
   order — with round-robin deque seeding this is the LPT heuristic, and
   work stealing absorbs estimate error. The *results* are independent of
   this order (each job is pure and keyed), so -j N output stays
   byte-identical to -j 1. *)
let by_cost cost xs = List.stable_sort (fun a b -> compare (cost b) (cost a)) xs
let schedule_order step_costs jobs = by_cost (fun j -> estimate step_costs j.step) jobs

let aggregate timed =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (step, dt) ->
      let jobs, wall = Option.value (Hashtbl.find_opt tbl step) ~default:(0, 0.) in
      Hashtbl.replace tbl step (jobs + 1, wall +. dt))
    timed;
  Hashtbl.fold (fun step_name (jobs, wall_s) acc -> { step_name; jobs; wall_s } :: acc) tbl []
  |> List.sort (fun a b -> compare (class_rank a.step_name) (class_rank b.step_name))

let pp_summary ppf s =
  Fmt.pf ppf
    "job grid: %d jobs on %d domain%s in %.1fs (%d simulated, %d memo hits, %d store hits)"
    s.total_jobs s.domains
    (if s.domains = 1 then "" else "s")
    s.wall_s s.executed s.hits s.store_hits;
  if s.profiled > 0 then Fmt.pf ppf "@.  + %d T4 profiled runs on the same pool" s.profiled;
  List.iter
    (fun c -> Fmt.pf ppf "@.  %-14s %3d jobs %8.1fs" c.step_name c.jobs c.wall_s)
    s.per_class;
  Fmt.pf ppf "@.%a" Pool.pp_stats s.sched

(* ------------------------------------------------------------------ *)
(* Chrome trace export of the grid schedule                             *)

(* One complete ("X") event per job on its executing domain's track, in
   the same trace_event dialect as Ninja_profile.Chrome — so a grid run
   can be inspected in chrome://tracing / Perfetto next to simulated-
   cycle profiles. Wall-clock based and therefore non-deterministic;
   never part of checked output. *)
type span = { s_label : string; s_domain : int; s_t0 : float; s_t1 : float }

let spans_to_chrome spans =
  let spans = List.sort (fun a b -> compare (a.s_t0, a.s_label) (b.s_t0, b.s_label)) spans in
  let t_base = match spans with s :: _ -> s.s_t0 | [] -> 0. in
  (* Domain.self () is an opaque unique id; number domains by first
     appearance for compact trace tracks. *)
  let tracks = Hashtbl.create 8 in
  let track d =
    match Hashtbl.find_opt tracks d with
    | Some i -> i
    | None ->
        let i = Hashtbl.length tracks in
        Hashtbl.add tracks d i;
        i
  in
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.Str s.s_label);
            ("cat", Json.Str "grid-job");
            ("ph", Json.Str "X");
            ("ts", Json.Num (Float.round ((s.s_t0 -. t_base) *. 1e6)));
            ("dur", Json.Num (Float.round ((s.s_t1 -. s.s_t0) *. 1e6)));
            ("pid", Json.Num 1.);
            ("tid", Json.Num (float_of_int (track s.s_domain)));
          ])
      spans
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List events);
         ("displayTimeUnit", Json.Str "ms");
         ( "otherData",
           Json.Obj [ ("source", Json.Str "ninja job grid scheduler") ] );
       ])

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)

(* The prefill pool runs two kinds of task: grid jobs, whose reports land
   in the memo, and T4's profiled runs ([E.t4_runs], by index), whose
   profiles bypass it. A job's outcome is its span on the domain that
   ran it. *)
type task = Job of job | Profile of int * Machine.t * Driver.benchmark

type outcome = Ran of job * span | Profiled of int * Ninja_profile.Profile.t

let task_label = function
  | Job j -> Fmt.str "%s/%s/%s" j.machine.Machine.name j.bench.Driver.b_name j.step
  | Profile (_, m, b) -> Fmt.str "T4 profile %s/%s" m.Machine.name b.Driver.b_name

(* A profiled run simulates the ninja variant under an event sink, so it
   is priced as (at least) a ninja job. *)
let task_cost step_costs = function
  | Job j -> estimate step_costs j.step
  | Profile _ -> estimate step_costs "ninja"

let t4_tasks () = List.mapi (fun i (m, b) -> Profile (i, m, b)) E.t4_runs

(* Profiles in [E.t4_runs] order from a pool's outcomes. *)
let profiles_of outcomes =
  List.filter_map (function Profiled (i, p) -> Some (i, p) | Ran _ -> None) outcomes
  |> List.sort (fun (i, _) (j, _) -> compare i j)
  |> List.map snd

let run_tasks ~domains ?on_stats step_costs tasks =
  Pool.map_list ~domains ?on_stats ~label:task_label
    (fun task ->
      match task with
      | Profile (i, m, b) -> Profiled (i, E.t4_profile m b)
      | Job j ->
          let s_t0 = Unix.gettimeofday () in
          ignore (E.run_step_cached ~machine:j.machine j.bench j.step);
          let s_t1 = Unix.gettimeofday () in
          let s_domain = (Domain.self () :> int) in
          Ran (j, { s_label = task_label task; s_domain; s_t0; s_t1 }))
    (by_cost (task_cost step_costs) tasks)

let profile_t4 ?domains () =
  let domains = match domains with Some d -> max 1 d | None -> Pool.default_domains () in
  profiles_of (run_tasks ~domains [] (t4_tasks ()))

let prefill ?domains ?(experiments = E.all) ?(verbose = false) ?sched_trace () =
  let domains = match domains with Some d -> max 1 d | None -> Pool.default_domains () in
  let jobs = all_jobs ~experiments () in
  let profiled =
    if List.exists (fun (e : E.experiment) -> e.id = "t4") experiments && E.t4_pending ()
    then t4_tasks ()
    else []
  in
  let store = E.store () in
  let step_costs = match store with Some st -> Store.step_costs st | None -> [] in
  let hits0, misses0 = E.cache_stats () in
  let store0 = E.store_hit_count () in
  let sched = ref None in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    run_tasks ~domains
      ~on_stats:(fun s -> sched := Some s)
      step_costs
      (List.map (fun j -> Job j) jobs @ profiled)
  in
  if profiled <> [] then E.set_t4_profiles (profiles_of outcomes);
  let spans =
    List.filter_map (function Ran (j, sp) -> Some (j, sp) | Profiled _ -> None) outcomes
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let hits1, misses1 = E.cache_stats () in
  let store1 = E.store_hit_count () in
  (match store with Some st -> Store.flush_costs st | None -> ());
  (match sched_trace with
  | Some path -> write_file path (spans_to_chrome (List.map snd spans))
  | None -> ());
  let summary =
    {
      domains;
      total_jobs = List.length jobs;
      executed = misses1 - misses0;
      hits = hits1 - hits0;
      store_hits = store1 - store0;
      wall_s;
      profiled = List.length profiled;
      per_class = aggregate (List.map (fun (j, sp) -> (j.step, sp.s_t1 -. sp.s_t0)) spans);
      sched =
        (match !sched with
        | Some s -> s
        | None ->
            (* map_list always reports stats on success; synthesize an
               empty snapshot if a future path skips it *)
            {
              Pool.domains;
              tasks_run = List.length outcomes;
              steals = 0;
              cancelled = 0;
              busy_s = [| wall_s |];
              run_per_domain = [| List.length outcomes |];
              max_depth = [| 0 |];
            });
    }
  in
  (* Quiet by default so library callers (tests, golden generation) get a
     clean stderr; the CLI and the bench harness opt in. *)
  if verbose then Fmt.epr "%a@." pp_summary summary;
  summary
