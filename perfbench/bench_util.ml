(* Shared helpers for the benchmark: argv flags, clocks, statistics,
   process memory, and the result line every subcommand prints. *)

module Json = Ninja_report.Json

let now = Unix.gettimeofday

let flag_value name =
  let rec go = function
    | a :: v :: _ when a = name -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let int_flag name default =
  match flag_value name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let str_flag name = match flag_value name with Some v -> v | None -> failwith (name ^ " is required")

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Run [f] (one unit: a pass, a round) until the measuring time is used,
   stopping at the unit boundary nearest to [seconds]. Returns each unit's
   result and wall time. *)
let units_for ~seconds f =
  let t_start = now () in
  let rec go acc =
    let v, wall = timed f in
    let acc = (v, wall) :: acc in
    if now () -. t_start +. (wall /. 2.) >= float_of_int seconds then List.rev acc else go acc
  in
  go []

(* Nearest-rank percentile, as Ninja_util.Stats.percentile. *)
let percentile = Ninja_util.Stats.percentile

(* Samples strictly above the nearest-rank [p] percentile. *)
let beyond p xs = List.length xs - int_of_float (Float.ceil (p *. float_of_int (List.length xs)))

(* Peak resident set size of this process so far (VmHWM), in MB; 0 where
   /proc is unavailable. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%f kB" (fun kb -> kb /. 1024.)
             | _ -> None)
      |> Option.value ~default:0.

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* ---- results ---- *)

(* The line a subcommand prints last: the outcome, the metrics (name,
   value, unit), and free-form details for the human summary. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  details : (string * Json.t) list;
}

let problems : string list ref = ref []

(* Record a failed output check: the run continues, but is not correct. *)
let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("CHECK FAILED: " ^ m);
      problems := m :: !problems)
    fmt

let print_result r =
  let num f =
    if Float.is_finite f then Json.Num f else Json.Num 0.
  in
  let metrics =
    List.map
      (fun (n, v, u) -> (n, Json.Obj [ ("value", num v); ("unit", Json.Str u) ]))
      r.metrics
  in
  let doc =
    Json.Obj
      [
        ("correct", Json.Bool (r.correct && !problems = []));
        ("attempted", Json.Num (float_of_int r.attempted));
        ("failed", Json.Num (float_of_int r.failed));
        ("metrics", Json.Obj metrics);
        ("problems", Json.List (List.rev_map (fun p -> Json.Str p) !problems));
        ("details", Json.Obj r.details);
      ]
  in
  print_endline (Json.to_string ~indent:false doc)
