(* sim-sweep: 40 simulations (10 benchmarks x {naive serial, ninja} x
   {Westmere, KNF}) run serially on one domain through Driver.run_step
   with the default backend, in a seeded order, pass after pass until the
   measuring time is used. Ladders are built during set-up.

   The traced run decomposes every job from outside, calling each
   layer's public functions in turn on fresh memory: kernels (program
   build, data binding), vm (session compile, launches without an event
   sink, launches with a null sink, launches with a counting sink) and
   the full Driver.run_step, whose difference with the null-sink launches
   is the memory/timing model. *)

open Bench_util
module Machine = Ninja_arch.Machine
module Timing = Ninja_arch.Timing
module Driver = Ninja_kernels.Driver
module Interp = Ninja_vm.Interp

let halves = [ ("naive serial", "scalar"); ("ninja", "vector") ]

type job = {
  id : int;
  bench : Driver.benchmark;
  machine : Machine.t;
  step : Driver.step;
  half : string;
}

let label j = Printf.sprintf "%s/%s/%s" j.bench.b_name j.machine.name j.step.step_name

(* The set-up: every benchmark's ladder at its default scale, each build
   timed. *)
let build_ladders () =
  List.map
    (fun (b : Driver.benchmark) -> timed (fun () -> (b, b.steps ~scale:b.default_scale)))
    Ninja_kernels.Registry.all

let jobs_of ladders ~seed =
  let jobs =
    List.concat_map
      (fun (((b : Driver.benchmark), ladder), _) ->
        List.concat_map
          (fun machine ->
            List.map
              (fun (step_name, half) ->
                let step =
                  List.find (fun (s : Driver.step) -> s.step_name = step_name) ladder
                in
                { id = 0; bench = b; machine; step; half })
              halves)
          Digests.machines)
      ladders
    |> Array.of_list
  in
  Ninja_util.Rng.shuffle (Ninja_util.Rng.create seed) jobs;
  Array.to_list (Array.mapi (fun i j -> { j with id = i }) jobs)

(* ---- untraced passes ---- *)

type sample = { s_job : job; s_time : float; s_instr : int }

let run_pass refs jobs ~attempted ~failed =
  List.map
    (fun j ->
      incr attempted;
      let t0 = now () in
      match Driver.run_step ~machine:j.machine j.step with
      | r ->
          let dt = now () -. t0 in
          if
            not
              (Digests.check refs ~bench:j.bench.b_name ~machine:j.machine.name
                 ~step:j.step.step_name r)
          then incr failed;
          { s_job = j; s_time = dt; s_instr = r.Timing.instructions }
      | exception e ->
          incr failed;
          fail "%s raised %s" (label j) (Printexc.to_string e);
          { s_job = j; s_time = now () -. t0; s_instr = 0 })
    jobs

(* Simulated Mop per host second over one half of the jobs. *)
let mops samples half =
  let ss = List.filter (fun s -> s.s_job.half = half) samples in
  let instr = List.fold_left (fun a s -> a + s.s_instr) 0 ss in
  let t = List.fold_left (fun a s -> a +. s.s_time) 0. ss in
  float_of_int instr /. t /. 1e6

(* ---- traced decomposition of one job ---- *)

type layers = {
  make_s : float;
  bind_s : float;
  compile_s : float;
  exec_s : float;
  exec_w : float;
  null_s : float;
  null_w : float;
  full_s : float;
  full_w : float;
  instructions : int;
  events : int;
  accesses : int array;  (** L1, L2, LLC, Dram *)
}

(* Time [f] and count the minor words it allocates (inside the caller's
   span). Gc.minor_words, not Gc.quick_stat: the latter's counter only
   advances at minor collections, a 256k-word grain. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let v = f () in
  let t = now () -. t0 in
  (v, t, Gc.minor_words () -. w0)

let decompose refs j ~count_events =
  let m = j.machine and step = j.step in
  let sp name layer f = Span.with_span ~layer name f in
  let n_threads = if step.parallel then m.cores else 1 in
  let runs = step.runs m in
  let strategy = Interp.default_strategy () in
  let prog, make_s, _ = sp "Driver.step.make" "kernels" (fun () -> measure (fun () -> step.make ~machine:m)) in
  let bind () =
    sp "Driver.memory_for" "kernels" (fun () ->
        measure (fun () -> Driver.memory_for prog (step.bindings ())))
  in
  (* launches of a fresh session over fresh memory; returns instructions *)
  let launches ?sink name layer =
    let mem, bind_s, _ = bind () in
    let launch, compile_s, _ =
      sp "Interp.session" "vm" (fun () ->
          measure (fun () ->
              Interp.session ~n_threads ~width:m.simd_width ?sink ~strategy prog mem))
    in
    let instr, t, w =
      sp name layer (fun () ->
          measure (fun () ->
              let n = ref 0 in
              for run = 0 to runs - 1 do
                step.prepare m run mem;
                n := !n + (launch ()).Interp.instructions
              done;
              !n))
    in
    (instr, bind_s, compile_s, t, w)
  in
  let instructions, bind_s, compile_s, exec_s, exec_w = launches "launch (no sink)" "vm" in
  let null_instr, _, _, null_s, null_w =
    launches ~sink:(fun _ -> ()) "launch (null sink)" "vm"
  in
  let events =
    if count_events then begin
      let n = ref 0 in
      ignore (launches ~sink:(fun _ -> incr n) "launch (counting sink)" "vm");
      !n
    end
    else 0
  in
  let r, full_s, full_w =
    sp "Driver.run_step" "arch" (fun () ->
        measure (fun () -> Driver.run_step ~machine:m step))
  in
  ignore (Digests.check refs ~bench:j.bench.b_name ~machine:m.name ~step:step.step_name r : bool);
  if instructions <> r.instructions || null_instr <> r.instructions then
    fail "%s: launches ran %d/%d instructions, run_step %d" (label j) instructions
      null_instr r.instructions;
  {
    make_s; bind_s; compile_s; exec_s; exec_w; null_s; null_w; full_s; full_w;
    instructions; events;
    accesses = Array.of_list (List.map snd r.level_accesses);
  }

let per_layer_metrics (results : (job * layers) list) =
  List.concat_map
    (fun (_, half) ->
      let rs = List.filter_map (fun (j, l) -> if j.half = half then Some l else None) results in
      let sum f = List.fold_left (fun a l -> a +. f l) 0. rs in
      let isum f = List.fold_left (fun a l -> a + f l) 0 rs in
      let instr = float_of_int (isum (fun l -> l.instructions)) in
      (* model = run_step minus everything it shares with the null-sink
         path: program build, binding, compile, launches with events *)
      let model l = l.full_s -. (l.make_s +. l.bind_s +. l.compile_s +. l.null_s) in
      let n name v unit = (name ^ "." ^ half, v, unit) in
      [
        n "vm.compile_s" (sum (fun l -> l.compile_s)) "s";
        n "vm.exec_s" (sum (fun l -> l.exec_s)) "s";
        n "vm.instructions" instr "count";
        n "vm.exec_words_per_op" (sum (fun l -> l.exec_w) /. instr) "words/op";
        n "vm.events_s" (sum (fun l -> l.null_s -. l.exec_s)) "s";
        n "vm.events_words_per_op" (sum (fun l -> l.null_w -. l.exec_w) /. instr) "words/op";
        n "vm.events" (float_of_int (isum (fun l -> l.events))) "count";
        n "arch.model_s" (sum model) "s";
        n "arch.model_words_per_op" (sum (fun l -> l.full_w -. l.null_w) /. instr) "words/op";
      ]
      @ List.mapi
          (fun i lvl -> n ("arch.accesses." ^ lvl) (float_of_int (isum (fun l -> l.accesses.(i)))) "count")
          [ "L1"; "L2"; "LLC"; "Dram" ])
    halves

(* ---- entry point ---- *)

let run ~seed ~seconds ~trace ~refs_path =
  let refs = Digests.load refs_path in
  (* Set-up is one ladder build: TreeSearch's dataset dominates it at
     several seconds, too costly to repeat within one run. *)
  let ladders, setup_s = timed build_ladders in
  let jobs = jobs_of ladders ~seed in
  let attempted = ref 0 and failed = ref 0 in
  let pass () = run_pass refs jobs ~attempted ~failed in
  let ladder_metrics () =
    let per = List.map (fun (((b : Driver.benchmark), _), t) -> (b.b_name, t)) ladders in
    ("kernels.ladder_s", List.fold_left (fun a (_, t) -> a +. t) 0. per, "s")
    :: List.map (fun (n, t) -> ("kernels.ladder_s." ^ n, t, "s")) per
  in
  if not trace then begin
    let passes = units_for ~seconds pass in
    let samples = List.concat_map fst passes in
    let lat = List.map (fun s -> s.s_time *. 1e3) samples in
    let wall = List.fold_left (fun a (_, w) -> a +. w) 0. passes /. float_of_int (List.length passes) in
    Printf.eprintf "sim-sweep: %d passes of %d jobs, %d latency samples (%d beyond p99)\n%!"
      (List.length passes) (List.length jobs) (List.length lat) (beyond 0.99 lat);
    (* Means over every pass of the run: host speed drifts between
       regimes lasting tens of seconds, and the mean averages the ones a
       run sees where a median would pick one (measured: a spread of 0.12
       against 0.15 over the same runs). Latency percentiles and memory
       are reported, not gated. *)
    {
      correct = true;
      attempted = !attempted;
      failed = !failed;
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("wall_s", wall, "s");
          ("rps", float_of_int (List.length jobs) /. wall, "1/s");
          ("scalar_mops_per_s", mops samples "scalar", "Mop/s");
          ("vector_mops_per_s", mops samples "vector", "Mop/s");
          ("p50_ms", percentile 0.50 lat, "ms");
          ("p99_ms", percentile 0.99 lat, "ms");
          ("peak_rss_mb", peak_rss_mb (), "MB");
        ];
      details =
        [
          ("latency_samples", Json.Num (float_of_int (List.length lat)));
          ("beyond_p99", Json.Num (float_of_int (beyond 0.99 lat)));
        ];
    }
  end
  else begin
    (* one untraced pass for the overhead baseline, then two traced
       passes whose allocation counts must repeat exactly *)
    let _, untraced_wall = timed pass in
    Span.enabled := true;
    let traced_pass ~count_events =
      Span.with_span ~layer:"sweep" "pass" (fun () ->
          List.map
            (fun j ->
              incr attempted;
              ( j,
                Span.with_span ~group:j.id ~layer:"sweep" ("job:" ^ label j) (fun () ->
                    decompose refs j ~count_events) ))
            jobs)
    in
    let (first, wall1), (second, _), lang =
      Span.with_span ~layer:"bench" "traced run" (fun () ->
          let first = timed (fun () -> traced_pass ~count_events:true) in
          let second = timed (fun () -> traced_pass ~count_events:false) in
          (first, second, Frontend.census ()))
    in
    Span.enabled := false;
    List.iter2
      (fun (j, a) (_, b) ->
        if a.exec_w <> b.exec_w || a.null_w <> b.null_w || a.full_w <> b.full_w then begin
          incr failed;
          fail "%s: minor words differ between passes (exec %.0f/%.0f, null %.0f/%.0f, full %.0f/%.0f)"
            (label j) a.exec_w b.exec_w a.null_w b.null_w a.full_w b.full_w
        end)
      first second;
    {
      correct = true;
      attempted = !attempted;
      failed = !failed;
      metrics =
        ladder_metrics () @ lang @ per_layer_metrics first
        @ [ ("trace.overhead_s", wall1 -. untraced_wall, "s"); ("host.peak_rss_mb", peak_rss_mb (), "MB") ];
      details = [];
    }
  end
