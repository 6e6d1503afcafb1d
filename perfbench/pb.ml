(* Benchmark entry point: one workload per invocation, one JSON result
   line on stdout (see run.py, which builds and drives this program). *)

open Bench_util

(* Self-time tolerance: the main track's self times must add up to the
   traced run's wall time within 1 ms plus 0.1%. *)
let tolerance wall = 1e-3 +. (1e-3 *. wall)

let spans_report ~out =
  let spans = Span.all () in
  List.iter (fun p -> fail "span tree: %s" p) (Span.check_nesting spans);
  write_file out (Span.to_chrome spans);
  Printf.eprintf "traced run: %d spans -> %s\nself time by layer (s, spans):\n" (List.length spans) out;
  List.iter (fun (l, t, n) -> Printf.eprintf "  %-10s %10.4f %7d\n" l t n) (Span.layer_table spans);
  List.iter
    (fun (track, (self, covered)) ->
      Printf.eprintf "  track %d: self times %.6f s, root spans %.6f s\n" track self covered;
      if Float.abs (self -. covered) > tolerance covered then
        fail "track %d: self times sum to %.6f s, not the %.6f s its root spans cover" track self
          covered)
    (Span.track_totals spans)

(* Open the store in a fresh process and count its entries: the grid
   workloads' repeatable set-up step (run.py times it). *)
let store_probe dir =
  let st = Ninja_core.Store.open_ ~dir () in
  let rec count path =
    if Sys.is_directory path then
      Array.fold_left (fun a f -> a + count (Filename.concat path f)) 0 (Sys.readdir path)
    else if Filename.check_suffix path ".json" && Filename.basename path <> "costs.json" then 1
    else 0
  in
  Printf.printf "%d\n" (count (Ninja_core.Store.dir st))

let () =
  let trace = int_flag "--trace" 0 = 1 in
  let seed = int_flag "--seed" 1 and seconds = int_flag "--seconds" 20 in
  let workload run =
    let r = run () in
    if trace then spans_report ~out:(str_flag "--trace-out");
    print_result r
  in
  match Array.to_list Sys.argv with
  | _ :: "sweep" :: _ ->
      workload (fun () -> Sweep.run ~seed ~seconds ~trace ~refs_path:(str_flag "--refs"))
  | _ :: "serve" :: _ ->
      workload (fun () ->
          Serve_mix.run ~seed ~seconds ~trace ~refs_path:(str_flag "--refs")
            ~work_dir:(str_flag "--work"))
  | _ :: "grid" :: _ ->
      let work = str_flag "--work" in
      workload (fun () ->
          Grid.run ~store_dir:(str_flag "--store") ~expect:(str_flag "--expect")
            ~golden:(str_flag "--golden") ~tables_out:(Filename.concat work "tables.txt")
            ~sched_out:(Filename.concat work "schedule.json")
            ~probe_dir:(Filename.concat work "probe-store") ~trace)
  | _ :: "store-probe" :: _ -> store_probe (str_flag "--store")
  | _ :: "gen-digests" :: _ -> Digests.generate ()
  | _ ->
      prerr_endline "usage: pb.exe (sweep|grid|serve|store-probe|gen-digests) [flags]";
      exit 2
