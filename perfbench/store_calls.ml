(* The persistent store's calls, timed from outside: for each key, build
   the step's program, compute its store key, load the entry (it must be
   there), and save it again into a separate probe store — the three
   calls a simulation's store round trip makes. Returns the summed
   seconds of key, load and save. *)

open Bench_util
module Store = Ninja_core.Store
module Driver = Ninja_kernels.Driver

let time_calls st ~probe_dir keys =
  let probe = Store.open_ ~dir:probe_dir () in
  let backend = Ninja_vm.Interp.strategy_tag (Ninja_vm.Interp.default_strategy ()) in
  let key_s = ref 0. and load_s = ref 0. and save_s = ref 0. in
  let call group acc name f =
    let v, dt = timed (fun () -> Span.with_span ~group ~layer:"core" name f) in
    acc := !acc +. dt;
    v
  in
  Span.with_span ~layer:"core" "store calls" (fun () ->
      List.iteri
        (fun group ((b : Driver.benchmark), (machine : Ninja_arch.Machine.t), step_name) ->
          let step =
            List.find
              (fun (s : Driver.step) -> s.step_name = step_name)
              (Ninja_core.Experiments.ladder b ~scale:b.default_scale)
          in
          let prog =
            Span.with_span ~group ~layer:"kernels" "Driver.step.make" (fun () -> step.make ~machine)
          in
          let key = call group key_s "Store.key" (fun () -> Store.key ~backend st ~machine ~step_name prog) in
          match call group load_s "Store.load" (fun () -> Store.load st ~key ~machine) with
          | None -> fail "store call: %s/%s/%s missed" machine.name b.b_name step_name
          | Some r ->
              call group save_s "Store.save" (fun () ->
                  Store.save probe ~key ~machine ~step_name ~cost_s:0. r))
        keys);
  (!key_s, !load_s, !save_s)
