(* Benchmark-side spans: the traced run wraps every layer call the
   benchmark makes in [with_span], so the per-layer breakdown is measured
   from outside the library. Nothing is recorded while tracing is off: a
   span is then a plain call.

   A span records its name, the layer it charges, the id of the job or
   request it belongs to, its start and end, the track (thread of a
   domain) it ran on, and its parent. Spans are kept in memory and exported when the run ends. *)

type t = {
  idx : int;
  name : string;
  layer : string;
  group : int;  (** job or request id; -1 outside any job *)
  track : int;  (** the thread that ran it (see [track]) *)
  parent : int;  (** index of the parent span, -1 for a root *)
  t0 : float;
  mutable t1 : float;  (** nan until the span ends *)
}

let enabled = ref false
let mu = Mutex.create ()
let spans : t list ref = ref []
let next = ref 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Per-track state — a track is one thread of one domain: the open-span
   stack, and the parent and group that spans on an otherwise empty
   stack inherit (set by [in_task] for work handed to another track). *)
type track = {
  index : int;  (** 0 = the main thread, then by first appearance *)
  mutable stack : t list;
  mutable base_parent : int;
  mutable base_group : int;
}

let tracks : (int * int, track) Hashtbl.t = Hashtbl.create 4

let track () =
  let id = ((Domain.self () :> int), Thread.id (Thread.self ())) in
  locked (fun () ->
      match Hashtbl.find_opt tracks id with
      | Some t -> t
      | None ->
          let t =
            { index = Hashtbl.length tracks; stack = []; base_parent = -1; base_group = -1 }
          in
          Hashtbl.add tracks id t;
          t)

let now = Unix.gettimeofday

let start ?group ~layer name =
  let st = track () in
  let parent, inherited =
    match st.stack with
    | p :: _ -> (p.idx, p.group)
    | [] -> (st.base_parent, st.base_group)
  in
  let group = Option.value group ~default:inherited in
  let s =
    locked (fun () ->
        let s =
          { idx = !next; name; layer; group; track = st.index; parent; t0 = now ();
            t1 = Float.nan }
        in
        incr next;
        spans := s :: !spans;
        s)
  in
  st.stack <- s :: st.stack;
  s

let finish s =
  let t1 = now () in
  let st = track () in
  match st.stack with
  | top :: rest when top == s ->
      s.t1 <- t1;
      st.stack <- rest
  | _ -> failwith (Printf.sprintf "span %S closed out of order" s.name)

let with_span ?group ~layer name f =
  if not !enabled then f ()
  else begin
    let s = start ?group ~layer name in
    match f () with
    | v ->
        finish s;
        v
    | exception e ->
        finish s;
        raise e
  end

(* The innermost open span of the calling track, for [in_task]. *)
let current () =
  let st = track () in
  match st.stack with p :: _ -> (p.idx, p.group) | [] -> (-1, -1)

(* Run [f] on another thread or domain with spans parented to [parent] (from
   [current] on the submitting track). *)
let in_task (parent, group) f =
  if not !enabled then f ()
  else begin
    let st = track () in
    let saved = (st.base_parent, st.base_group) in
    st.base_parent <- parent;
    st.base_group <- group;
    Fun.protect
      ~finally:(fun () ->
        st.base_parent <- fst saved;
        st.base_group <- snd saved)
      f
  end

let all () = locked (fun () -> List.rev !spans)

(* ---- checks ---- *)

(* Every span ended, and nests inside its parent's interval. Returns the
   list of violations (empty when the tree is well formed). *)
let check_nesting spans =
  let by_idx = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_idx s.idx s) spans;
  List.filter_map
    (fun s ->
      if Float.is_nan s.t1 then Some (Printf.sprintf "span %S never ended" s.name)
      else if s.t1 < s.t0 then Some (Printf.sprintf "span %S ends before it starts" s.name)
      else if s.parent < 0 then None
      else
        match Hashtbl.find_opt by_idx s.parent with
        | None -> Some (Printf.sprintf "span %S has an unknown parent" s.name)
        | Some p ->
            if s.t0 < p.t0 || s.t1 > p.t1 then
              Some (Printf.sprintf "span %S escapes its parent %S" s.name p.name)
            else None)
    spans

(* Self time: a span's duration minus the time covered by its children on
   the same track — the union of their intervals, clipped to the span.
   Children on other tracks (pool workers, client threads) are accounted
   on their own track. When spans nest properly, each track's self times
   add up to the time its root spans cover — on the main track, the
   traced run's wall time; an overlapping or escaping child breaks the
   sum, which is what [track_totals] lets the caller check. *)
let self_times spans =
  let by_idx = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_idx s.idx s) spans;
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_idx s.parent with
      | Some p when p.track = s.track ->
          Hashtbl.replace children p.idx (s :: Option.value (Hashtbl.find_opt children p.idx) ~default:[])
      | _ -> ())
    spans;
  let covered p =
    let ivs =
      Option.value (Hashtbl.find_opt children p.idx) ~default:[]
      |> List.map (fun c -> (Float.max c.t0 p.t0, Float.min c.t1 p.t1))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let total, last =
      List.fold_left
        (fun (total, (cs, ce)) (a, b) ->
          if a > ce then (total +. (ce -. cs), (a, b)) else (total, (cs, Float.max ce b)))
        (0., (p.t0, p.t0)) ivs
    in
    total +. (snd last -. fst last)
  in
  List.map (fun s -> (s, s.t1 -. s.t0 -. covered s)) spans

(* Per track: (sum of self times, time covered by the track's roots —
   spans whose parent is absent or on another track). *)
let track_totals spans =
  let by_idx = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_idx s.idx s) spans;
  let tbl = Hashtbl.create 4 in
  let add d ~self ~root =
    let a, b = Option.value (Hashtbl.find_opt tbl d) ~default:(0., 0.) in
    Hashtbl.replace tbl d (a +. self, b +. root)
  in
  List.iter
    (fun (s, self) ->
      let is_root =
        match Hashtbl.find_opt by_idx s.parent with
        | Some p -> p.track <> s.track
        | None -> true
      in
      add s.track ~self ~root:(if is_root then s.t1 -. s.t0 else 0.))
    (self_times spans);
  Hashtbl.fold (fun d v acc -> (d, v) :: acc) tbl [] |> List.sort compare

(* Per layer: (self seconds, span count), sorted by self time. *)
let layer_table spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let a, n = Option.value (Hashtbl.find_opt tbl s.layer) ~default:(0., 0) in
      Hashtbl.replace tbl s.layer (a +. self, n + 1))
    (self_times spans);
  Hashtbl.fold (fun l (a, n) acc -> (l, a, n) :: acc) tbl []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

(* ---- export ---- *)

(* Chrome trace_event JSON, the dialect of the grid's --sched-trace: one
   complete ("X") event per span, microsecond timestamps from the first
   span, one Chrome thread per track. *)
let to_chrome spans =
  let module J = Ninja_report.Json in
  let t_base = List.fold_left (fun acc s -> Float.min acc s.t0) Float.infinity spans in
  let us x = J.Num (Float.round (x *. 1e6)) in
  let events =
    List.map
      (fun s ->
        J.Obj
          [
            ("name", J.Str s.name);
            ("cat", J.Str s.layer);
            ("ph", J.Str "X");
            ("ts", us (s.t0 -. t_base));
            ("dur", us (s.t1 -. s.t0));
            ("pid", J.Num 1.);
            ("tid", J.Num (float_of_int s.track));
            ( "args",
              J.Obj
                [
                  ("id", J.Num (float_of_int s.group));
                  ("span", J.Num (float_of_int s.idx));
                  ("parent", J.Num (float_of_int s.parent));
                ] );
          ])
      spans
  in
  J.to_string
    (J.Obj
       [
         ("traceEvents", J.List events);
         ("displayTimeUnit", J.Str "ms");
         ("otherData", J.Obj [ ("source", J.Str "perfbench traced run") ]);
       ])
