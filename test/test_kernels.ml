(* Integration tests: every benchmark's every ladder variant must reproduce
   the OCaml reference results, on both a CPU-class and a MIC-class machine
   (different vector widths, thread counts, FMA availability), compiled
   parallel variants must be free of data races, and the production
   backend ([Compiled]) must be observationally identical to the tree
   walker ([Tree]) on every variant. *)

module Driver = Ninja_kernels.Driver
module Registry = Ninja_kernels.Registry
module Machine = Ninja_arch.Machine

let test_scale = 1

let validate_case (machine : Machine.t) (bench : Driver.benchmark) =
  let name = Fmt.str "%s on %s" bench.b_name machine.name in
  Alcotest.test_case name `Quick (fun () ->
      let steps = bench.steps ~scale:test_scale in
      Alcotest.(check int) "five ladder steps" 5 (List.length steps);
      List.iter
        (fun (step : Driver.step) ->
          match Driver.validate_step ~machine step with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Fmt.str "%s / %s: %s" bench.b_name step.step_name e))
        steps)

let race_case (bench : Driver.benchmark) =
  Alcotest.test_case (bench.b_name ^ " race-free") `Quick (fun () ->
      let machine = Machine.westmere in
      let steps = bench.steps ~scale:test_scale in
      List.iter
        (fun (step : Driver.step) ->
          if step.parallel then begin
            let prog = step.make ~machine in
            let mem = Driver.memory_for prog (step.bindings ()) in
            try
              for run = 0 to step.runs machine - 1 do
                step.prepare machine run mem;
                ignore
                  (Ninja_vm.Interp.run ~n_threads:machine.cores
                     ~width:machine.simd_width ~check_races:true prog mem)
              done
            with Ninja_vm.Interp.Race races ->
              Alcotest.fail
                (Fmt.str "%s / %s: %s" bench.b_name step.step_name
                   (String.concat "; " races))
          end)
        steps)

let determinism_case (bench : Driver.benchmark) =
  Alcotest.test_case (bench.b_name ^ " deterministic timing") `Quick (fun () ->
      let machine = Machine.westmere in
      let step = List.nth (bench.steps ~scale:test_scale) 4 (* ninja *) in
      let r1 = Driver.run_step ~machine step in
      let r2 = Driver.run_step ~machine step in
      Alcotest.(check (float 1e-9)) "same cycles" r1.cycles r2.cycles)

let ladder_monotone_case (bench : Driver.benchmark) =
  (* the ninja variant must never be slower than naive serial *)
  Alcotest.test_case (bench.b_name ^ " ninja beats naive") `Quick (fun () ->
      let machine = Machine.westmere in
      let steps = bench.steps ~scale:test_scale in
      let time name =
        (Driver.run_step ~machine
           (List.find (fun (s : Driver.step) -> s.step_name = name) steps))
          .cycles
      in
      Alcotest.(check bool) "ninja faster" true (time "ninja" < time "naive serial"))

(* Everything one strategy observes over a step's launches, through one
   [Interp.session] as the timing model drives it: per-launch results and
   final register files, the memory-access event stream, the profiling
   trace (when [tracing]), and every buffer's final contents. The two
   streams are kept as running digests (with their lengths), not lists:
   a traced launch emits one event per dynamic instruction. *)
type buffer_contents = F of float array | I of int array

type step_observation = {
  o_results : (int * Ninja_vm.Counts.t) list;
  o_states :
    (int array * float array * float array array * int array array * bool array array)
    array
    list;
  o_events : int * string;
  o_trace : int * string;
  o_buffers : buffer_contents array;
}

(* A running digest over a stream of marshalled values: [add] one value,
   [finish] for (count, digest). *)
let stream_digest () =
  let chunk = Buffer.create 65_536 and acc = ref "" and n = ref 0 in
  let flush () =
    acc := Digest.string (!acc ^ Buffer.contents chunk);
    Buffer.clear chunk
  in
  let add v =
    incr n;
    Buffer.add_string chunk (Marshal.to_string v [ Marshal.No_sharing ]);
    if Buffer.length chunk >= 65_536 then flush ()
  in
  let finish () =
    flush ();
    (!n, Digest.to_hex !acc)
  in
  (add, finish)

let observe_step ~strategy ~tracing (machine : Machine.t) (step : Driver.step) =
  let module Interp = Ninja_vm.Interp in
  let prog = step.make ~machine in
  let mem = Driver.memory_for prog (step.bindings ()) in
  let add_event, events = stream_digest () in
  let add_trace, trace = stream_digest () in
  let states = ref [] in
  (* the session reuses its register files across launches *)
  let copy_state (s : Interp.thread_state) =
    ( Array.copy s.si,
      Array.copy s.sf,
      Array.map Array.copy s.vf,
      Array.map Array.copy s.vi,
      Array.map Array.copy s.vm )
  in
  let launch =
    Interp.session
      ~n_threads:(if step.parallel then machine.cores else 1)
      ~width:machine.simd_width ~strategy
      ~sink:(fun (ev : Ninja_vm.Event.t) -> add_event ev)
      ?trace:(if tracing then Some (fun (ev : Ninja_vm.Trace.event) -> add_trace ev) else None)
      ~on_states:(fun s -> states := Array.map copy_state s :: !states)
      prog mem
  in
  let results = ref [] in
  for run = 0 to step.runs machine - 1 do
    step.prepare machine run mem;
    let r = launch () in
    results := (r.instructions, r.counts) :: !results
  done;
  {
    o_results = !results;
    o_states = !states;
    o_events = events ();
    o_trace = trace ();
    o_buffers =
      Array.map
        (fun (d : Ninja_vm.Isa.buffer_decl) ->
          match Ninja_vm.Memory.find mem d.buf_name with
          | _, Ninja_vm.Memory.Fbuf a -> F (Array.copy a)
          | _, Ninja_vm.Memory.Ibuf a -> I (Array.copy a))
        prog.buffers;
  }

let diff_step_observations a b =
  if compare a.o_results b.o_results <> 0 then Some "launch results (instructions/counts)"
  else if compare a.o_states b.o_states <> 0 then Some "final register state"
  else if compare a.o_events b.o_events <> 0 then Some "memory-access event stream"
  else if compare a.o_trace b.o_trace <> 0 then Some "profiling trace"
  else if compare a.o_buffers b.o_buffers <> 0 then Some "buffer contents"
  else None

(* The modeled-time report without its machine record. *)
let report_numbers (r : Ninja_arch.Timing.report) =
  ( (r.n_threads, r.cycles, r.seconds, r.issue_cycles, r.stall_cycles),
    (r.dram_time, r.overhead_cycles, r.dram_read_bytes, r.dram_write_bytes),
    (r.counts, r.instructions, r.level_accesses, r.bound) )

let backend_case (machine : Machine.t) (bench : Driver.benchmark) step_name =
  let name = Fmt.str "%s / %s on %s: Tree = Compiled" bench.b_name step_name machine.name in
  Alcotest.test_case name `Quick (fun () ->
      let step =
        List.find
          (fun (s : Driver.step) -> s.step_name = step_name)
          (bench.steps ~scale:test_scale)
      in
      List.iter
        (fun tracing ->
          let tree = observe_step ~strategy:Ninja_vm.Interp.Tree ~tracing machine step in
          let compiled =
            observe_step ~strategy:Ninja_vm.Interp.Compiled ~tracing machine step
          in
          match diff_step_observations tree compiled with
          | None -> ()
          | Some what ->
              Alcotest.fail (Fmt.str "backends diverge (tracing=%b) on: %s" tracing what))
        [ false; true ];
      let report strategy = report_numbers (Driver.run_step ~strategy ~machine step) in
      Alcotest.(check bool) "identical timing reports" true
        (compare (report Ninja_vm.Interp.Tree) (report Ninja_vm.Interp.Compiled) = 0))

let backend_cases (bench : Driver.benchmark) =
  List.concat_map
    (fun machine ->
      List.map
        (fun (s : Driver.step) -> backend_case machine bench s.step_name)
        (bench.steps ~scale:test_scale))
    [ Machine.westmere; Machine.knights_ferry ]

let suite =
  ( "kernels",
    List.concat
      [ List.concat_map
          (fun b -> [ validate_case Machine.westmere b; validate_case Machine.knights_ferry b ])
          Registry.all;
        List.map race_case Registry.all;
        List.map determinism_case Registry.all;
        List.map ladder_monotone_case Registry.all;
        List.concat_map backend_cases Registry.all ] )
