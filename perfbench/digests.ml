(* The independent reference for simulation outputs: one digest line per
   (benchmark, machine, ladder step) — modeled cycles, dynamic
   instructions, DRAM bytes and per-level access counts. The committed
   file is generated once with the reference configuration (the Tree
   walker over the reference cache layouts), never with the backend under
   test:

     dune exec perfbench/pb.exe -- gen-digests > perfbench/reference_digests.tsv *)

module Machine = Ninja_arch.Machine
module Timing = Ninja_arch.Timing
module Driver = Ninja_kernels.Driver

let machines = [ Machine.westmere; Machine.knights_ferry ]

(* Every (benchmark, machine, step) of the ladders on both paper
   machines: the 100 keys the serve workload draws from, of which the
   sweep runs the naive-serial and ninja ones. *)
let all_keys () =
  List.concat_map
    (fun (b : Driver.benchmark) ->
      let ladder = Ninja_core.Experiments.ladder b ~scale:b.default_scale in
      List.concat_map
        (fun m -> List.map (fun (s : Driver.step) -> (b, m, s)) ladder)
        machines)
    Ninja_kernels.Registry.all

let key_of ~bench ~machine ~step = String.concat "\t" [ bench; machine; step ]

let digest (r : Timing.report) =
  let levels = List.map (fun (_, n) -> string_of_int n) r.level_accesses in
  String.concat "\t"
    ([ Printf.sprintf "%h" r.cycles; string_of_int r.instructions;
       string_of_int r.dram_read_bytes; string_of_int r.dram_write_bytes ]
    @ levels)

let generate () =
  List.iter
    (fun ((b : Driver.benchmark), (m : Machine.t), (s : Driver.step)) ->
      let r =
        Driver.run_step ~strategy:Ninja_vm.Interp.Tree ~fast_path:false ~machine:m s
      in
      print_endline
        (key_of ~bench:b.b_name ~machine:m.name ~step:s.step_name ^ "\t" ^ digest r))
    (all_keys ())

(* key -> digest, from the committed file. *)
let load path =
  let tbl = Hashtbl.create 128 in
  String.split_on_char '\n' (Bench_util.read_file path)
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | b :: m :: s :: rest when rest <> [] ->
             Hashtbl.replace tbl (key_of ~bench:b ~machine:m ~step:s) (String.concat "\t" rest)
         | _ -> ());
  tbl

(* Compare a report with the reference; record a failed check on any
   difference (or a missing reference line). Returns whether it matched. *)
let check tbl ~bench ~machine ~step r =
  let k = key_of ~bench ~machine ~step in
  match Hashtbl.find_opt tbl k with
  | None ->
      Bench_util.fail "no reference digest for %s/%s/%s" bench machine step;
      false
  | Some d when d = digest r -> true
  | Some d ->
      Bench_util.fail "%s/%s/%s: digest %s, reference %s" bench machine step (digest r) d;
      false
