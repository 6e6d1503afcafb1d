(* serve-mix: an in-process simulation service (1-domain pool) driven by
   2 closed-loop clients over a seeded request stream, starting from an
   empty memo and an empty store. About 80% of the requests are
   `simulate` over the 100 keys (benchmark x {westmere, one of the KNF
   aliases mic/knf/knights-ferry} x non-tuned ladder step), drawn from a
   Zipf distribution over a seeded key ranking; every key is also
   requested once at a seeded position, so each run simulates every key
   exactly once. The rest are `analyze` requests (front end only).

   Ladders are built during set-up, so request latency measures the
   service and the simulations, not dataset generation. *)

open Bench_util
module Service = Ninja_serve.Service
module Store = Ninja_core.Store
module E = Ninja_core.Experiments
module Driver = Ninja_kernels.Driver
module Machine = Ninja_arch.Machine
module Rng = Ninja_util.Rng

let clients = 2
let requests = 2000

type req = {
  body : string;  (** the request line without its id *)
  key : string;  (** resolved identity: replies for one key must match *)
  sim : (Driver.benchmark * Machine.t * string) option;
}

let line i r = Printf.sprintf {|{"id": %d, %s}|} i r.body

(* The seeded request stream of [n] requests. *)
let stream ~seed ~n =
  let rng = Rng.create seed in
  let keys =
    List.concat_map
      (fun (b : Driver.benchmark) ->
        let ladder = E.ladder b ~scale:b.default_scale in
        List.concat_map
          (fun (m : Machine.t) -> List.map (fun (s : Driver.step) -> (b, m, s.step_name)) ladder)
          Digests.machines)
      Ninja_kernels.Registry.all
    |> Array.of_list
  in
  Rng.shuffle rng keys;
  let nk = Array.length keys in
  (* Zipf(1) over the ranks: cumulative weights 1/1 .. 1/nk *)
  let cdf = Array.make nk 0. in
  Array.iteri (fun i _ -> cdf.(i) <- (if i = 0 then 0. else cdf.(i - 1)) +. (1. /. float_of_int (i + 1))) cdf;
  let zipf () =
    let u = Rng.float rng cdf.(nk - 1) in
    let rec find i = if i >= nk - 1 || cdf.(i) >= u then i else find (i + 1) in
    find 0
  in
  let simulate ((b : Driver.benchmark), (m : Machine.t), step) =
    let mname =
      if m.name = Machine.westmere.name then "westmere"
      else [| "mic"; "knf"; "knights-ferry" |].(Rng.int rng 3)
    in
    {
      body = Printf.sprintf {|"type": "simulate", "bench": %S, "machine": %S, "step": %S|} b.b_name mname step;
      key = String.concat "/" [ "simulate"; m.name; b.b_name; step ];
      sim = Some (b, m, step);
    }
  in
  let benches = Array.of_list Ninja_kernels.Registry.all in
  let analyze () =
    let b = benches.(Rng.int rng (Array.length benches)) in
    let variants = None :: List.map (fun (v, _) -> Some v) b.b_sources in
    let v = List.nth variants (Rng.int rng (List.length variants)) in
    {
      body =
        (match v with
        | None -> Printf.sprintf {|"type": "analyze", "bench": %S|} b.b_name
        | Some v -> Printf.sprintf {|"type": "analyze", "bench": %S, "variant": %S|} b.b_name v);
      key = String.concat "/" [ "analyze"; b.b_name; Option.value v ~default:"*" ];
      sim = None;
    }
  in
  let body =
    Array.init (max 0 (n - nk)) (fun _ ->
        if Rng.float rng 1. < 0.8 then simulate keys.(zipf ()) else analyze ())
  in
  let all = Array.append body (Array.map simulate keys) in
  Rng.shuffle rng all;
  all

(* ---- closed-loop clients ---- *)

type conn = { mu : Mutex.t; cond : Condition.t; mutable replies : string list }

type outcome = {
  o_req : int;
  o_latency : float;
  o_ingest : float;
  o_reply : string;
}

(* Run the stream through a fresh service: client [c] sends requests
   c, c + clients, ... one at a time, each after the previous reply.
   Returns the outcomes, the stream wall time, and the service stats. *)
let run_stream reqs =
  let svc = Service.create ~domains:1 () in
  let n = Array.length reqs in
  let outcomes = Array.make n None in
  let parent = Span.current () in
  let client c () =
    Span.in_task parent (fun () ->
        let st = { mu = Mutex.create (); cond = Condition.create (); replies = [] } in
        let conn =
          Service.conn ~write:(fun l ->
              Mutex.lock st.mu;
              st.replies <- l :: st.replies;
              Condition.signal st.cond;
              Mutex.unlock st.mu)
        in
        let i = ref c in
        while !i < n do
          let r = !i in
          Span.with_span ~group:r ~layer:"serve" "request" (fun () ->
              let t0 = now () in
              Span.with_span ~layer:"serve" "Service.handle_line" (fun () ->
                  Service.handle_line svc conn (line r reqs.(r)));
              let t1 = now () in
              Mutex.lock st.mu;
              while st.replies = [] do
                Condition.wait st.cond st.mu
              done;
              let reply = List.hd st.replies in
              st.replies <- [];
              Mutex.unlock st.mu;
              outcomes.(r) <- Some { o_req = r; o_latency = now () -. t0; o_ingest = t1 -. t0; o_reply = reply });
          i := !i + clients
        done)
  in
  let (), wall =
    timed (fun () ->
        List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ())))
  in
  Service.shutdown svc;
  let pool = Ninja_util.Pool.stats (Service.pool svc) in
  (Array.to_list (Array.map Option.get outcomes), wall, Service.stats svc, pool)

(* ---- output checks ---- *)

let strip_id reply =
  match Json.parse reply with
  | Json.Obj fields -> Some (Json.Obj (List.remove_assoc "id" fields))
  | _ -> None

(* Every reply ok; one reply per key up to its id; simulate reports equal
   to the reference digests. Returns the number of failed requests and,
   per simulated key, its instructions. *)
let check refs reqs outcomes =
  let seen = Hashtbl.create 128 in
  let failed = ref 0 in
  let instr = Hashtbl.create 128 in
  List.iter
    (fun o ->
      let r = reqs.(o.o_req) in
      match strip_id o.o_reply with
      | Some (Json.Obj fields as body) when List.assoc_opt "ok" fields = Some (Json.Bool true) -> (
          match Hashtbl.find_opt seen r.key with
          | Some prev ->
              if prev <> body then begin
                incr failed;
                fail "request %d: reply for %s differs from an earlier one" o.o_req r.key
              end
          | None -> (
              Hashtbl.add seen r.key body;
              match r.sim with
              | None -> ()
              | Some ((b : Driver.benchmark), (m : Machine.t), step) -> (
                  match Option.bind (Json.member "result" body) (Json.member "report") with
                  | None ->
                      incr failed;
                      fail "request %d: simulate reply without a report" o.o_req
                  | Some rep ->
                      let report = Store.report_of_json ~machine:m rep in
                      Hashtbl.replace instr r.key (step, report.instructions);
                      if not (Digests.check refs ~bench:b.b_name ~machine:m.name ~step report) then
                        incr failed)))
      | _ ->
          incr failed;
          fail "request %d (%s): reply not ok: %s" o.o_req r.key o.o_reply)
    outcomes;
  (!failed, instr)

(* ---- entry point ---- *)

let run ~seed ~seconds ~trace ~refs_path ~work_dir =
  let refs = Digests.load refs_path in
  let ladder_times, setup_s =
    timed (fun () ->
        List.map
          (fun (b : Driver.benchmark) ->
            (b.b_name, snd (timed (fun () -> ignore (E.ladder b ~scale:b.default_scale)))))
          Ninja_kernels.Registry.all)
  in
  let reqs = stream ~seed ~n:requests in
  (* a fresh store and an empty memo for each stream *)
  let fresh_state name =
    let dir = Filename.concat work_dir name in
    rm_rf dir;
    let st = Store.open_ ~dir () in
    E.set_store (Some st);
    E.reset_cache ();
    st
  in
  let round k =
    ignore (fresh_state (Printf.sprintf "store-%d" k) : Store.t);
    let outcomes, wall, stats, _ = run_stream reqs in
    let failed, instr = check refs reqs outcomes in
    if stats.s_simulations <> Hashtbl.length instr then
      fail "service ran %d simulations for %d distinct simulate keys" stats.s_simulations
        (Hashtbl.length instr);
    let half step = Hashtbl.fold (fun _ (s, i) a -> if s = step then a + i else a) instr 0 in
    (outcomes, wall, stats, failed, half "naive serial", half "ninja")
  in
  if not trace then begin
    (* rounds of the whole stream, each from an empty memo and store,
       until the measuring time is used; figures are means over the
       rounds (see Sweep.run on why means) *)
    let k = ref 0 in
    let rs =
      List.map fst
        (units_for ~seconds (fun () ->
             incr k;
             round !k))
    in
    let sum f = List.fold_left (fun a r -> a +. f r) 0. rs in
    let total = sum (fun (_, w, _, _, _, _) -> w) in
    let lat = List.concat_map (fun (os, _, _, _, _, _) -> List.map (fun o -> o.o_latency *. 1e3) os) rs in
    let nr = List.length rs in
    let (_, _, stats, _, _, _) = List.hd rs in
    Printf.eprintf
      "serve-mix: %d rounds of %d requests, %d latency samples (%d beyond p99), %d simulations and %d coalesced per round\n%!"
      nr requests (List.length lat) (beyond 0.99 lat) stats.s_simulations stats.s_coalesced;
    {
      correct = true;
      attempted = nr * requests;
      failed = int_of_float (sum (fun (_, _, _, f, _, _) -> float_of_int f));
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("wall_s", total /. float_of_int nr, "s");
          ("rps", float_of_int (nr * requests) /. total, "1/s");
          ("scalar_mops_per_s", sum (fun (_, _, _, _, s, _) -> float_of_int s) /. total /. 1e6, "Mop/s");
          ("vector_mops_per_s", sum (fun (_, _, _, _, _, v) -> float_of_int v) /. total /. 1e6, "Mop/s");
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
    (* one untraced round for the overhead baseline, then the same
       stream traced, from a fresh memo and store *)
    let _, wall, _, failed, _, _ = round 0 in
    let st = fresh_state "store-traced" in
    Span.enabled := true;
    let root = Span.start ~layer:"bench" "traced run" in
    let outcomes, twall, tstats, pool =
      Span.with_span ~layer:"serve" "stream" (fun () -> run_stream reqs)
    in
    let tfailed, _ = check refs reqs outcomes in
    (* store calls over every simulated key, timed from outside *)
    let key_s, load_s, save_s =
      let seen = Hashtbl.create 128 in
      Array.iter (fun r -> Option.iter (fun k -> Hashtbl.replace seen r.key k) r.sim) reqs;
      Store_calls.time_calls st ~probe_dir:(Filename.concat work_dir "probe-store")
        (Hashtbl.fold (fun key k acc -> (key, k) :: acc) seen []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map snd)
    in
    let lang = Frontend.census () in
    Span.finish root;
    Span.enabled := false;
    let ss = Store.stats st in
    let lat = List.map (fun o -> o.o_latency *. 1e3) outcomes in
    let ingest = List.fold_left (fun a o -> a +. o.o_ingest) 0. outcomes in
    let latency = List.fold_left (fun a o -> a +. o.o_latency) 0. outcomes in
    let per_req x = x /. float_of_int requests *. 1e3 in
    let busy = Array.fold_left ( +. ) 0. pool.busy_s in
    let work = tstats.s_simulate + tstats.s_analyze + tstats.s_tune in
    {
      correct = true;
      attempted = 2 * requests;
      failed = failed + tfailed;
      metrics =
        (("kernels.ladder_s", setup_s, "s")
        :: List.map (fun (b, t) -> ("kernels.ladder_s." ^ b, t, "s")) ladder_times)
        @ lang
        @ [
            ("core.store.key_s", key_s, "s");
            ("core.store.load_s", load_s, "s");
            ("core.store.save_s", save_s, "s");
            ("core.store.hits", float_of_int ss.hits, "count");
            ("core.store.misses", float_of_int ss.misses, "count");
            ("core.store.writes", float_of_int ss.writes, "count");
            ("core.store.errors", float_of_int ss.errors, "count");
            ("util.pool.busy_s", busy, "s");
            ("util.pool.idle_s", (float_of_int pool.domains *. twall) -. busy, "s");
            ("util.pool.steals", float_of_int pool.steals, "count");
            ("serve.p50_ms", percentile 0.50 lat, "ms");
            ("serve.p99_ms", percentile 0.99 lat, "ms");
            ("serve.ingest_ms", per_req ingest, "ms");
            ("serve.wait_ms", per_req (latency -. ingest), "ms");
            ("serve.simulations", float_of_int tstats.s_simulations, "count");
            ("serve.memo_hits", float_of_int tstats.s_memo_hits, "count");
            ("serve.store_hits", float_of_int tstats.s_store_hits, "count");
            ("serve.coalesced", float_of_int tstats.s_coalesced, "count");
            ("serve.overloaded", float_of_int tstats.s_overloaded, "count");
            ("serve.coalesce_rate", float_of_int tstats.s_coalesced /. float_of_int (max 1 work), "ratio");
            ("trace.overhead_s", twall -. wall, "s");
            ("host.peak_rss_mb", peak_rss_mb (), "MB");
          ];
      details = [];
    }
  end
