open Ninja_vm

type bound = Compute | Bandwidth | Latency

type report = {
  machine : Machine.t;
  n_threads : int;
  cycles : float;
  seconds : float;
  issue_cycles : float;
  stall_cycles : float;
  dram_time : float;
  overhead_cycles : float;
  dram_read_bytes : int;
  dram_write_bytes : int;
  counts : Counts.t;
  instructions : int;
  level_accesses : (Hierarchy.level * int) list;
  bound : bound;
}

(* Port-model issue time for one thread: each class is priced with its
   reciprocal throughput and binned onto the port that executes it; the
   thread is also limited by the front-end issue width. *)
let issue_time (m : Machine.t) counts ~thread =
  let c cls = float_of_int (Counts.thread_count counts ~thread cls) in
  let cost cls = m.issue_cost cls in
  let alu = (c Salu *. cost Salu) +. (c Valu *. cost Valu) +. (c Vmask *. cost Vmask) in
  let fp =
    (c Sfp *. cost Sfp) +. (c Vfp *. cost Vfp)
    +. (c Sdivsqrt *. cost Sdivsqrt)
    +. (c Vdivsqrt *. cost Vdivsqrt)
    +. (c Smath *. cost Smath) +. (c Vmath *. cost Vmath)
    +. (c Vshuf *. cost Vshuf)
  in
  let mem =
    (c Sload *. cost Sload) +. (c Sstore *. cost Sstore)
    +. (c Vload *. cost Vload) +. (c Vstore *. cost Vstore)
    +. ((c Vgather +. c Vscatter) *. Machine.gather_cost m)
  in
  let br = c Branch *. cost Branch in
  let slots = float_of_int (Counts.per_thread_total counts ~thread) in
  let front_end = slots /. float_of_int m.issue_width in
  List.fold_left Float.max front_end [ alu; fp; mem; br ]

let trace_level : Hierarchy.level -> Trace.level = function
  | L1 -> Trace.L1
  | L2 -> Trace.L2
  | LLC -> Trace.LLC
  | Dram -> Trace.Dram

(* The untraced fast path: one call per access from compiled code, with
   immediates, summing the stall straight into [stalls] from per-level
   penalties resolved here — no record in, none out, nothing allocated. *)
let access_hook (m : Machine.t) hier ~stalls : Event.hook =
  let mlp = float_of_int m.mlp
  and l2_p = float_of_int m.l2.latency
  and llc_p = float_of_int m.llc.latency
  and dram_p = float_of_int m.dram_latency in
  let hook ~thread ~addr ~bytes ~write ~chain ~nt =
    let r = Hierarchy.access hier ~core:thread ~addr ~bytes ~write ~nt in
    if not r.covered then begin
      let p =
        match r.level with L1 -> 0. | L2 -> l2_p | LLC -> llc_p | Dram -> dram_p
      in
      stalls.(thread) <- stalls.(thread) +. (if chain then p else p /. mlp)
    end
  in
  hook

let simulate ~machine ?(n_threads = 1) ?(runs = 1) ?prepare ?trace ?strategy ?fast_path prog
    mem =
  let m : Machine.t = machine in
  if n_threads > m.cores then
    invalid_arg
      (Fmt.str "Timing.simulate: %d threads on %d cores (%s)" n_threads m.cores m.name);
  if runs < 1 then invalid_arg "Timing.simulate: runs < 1";
  let hier = Hierarchy.create ?fast_path m in
  let stalls = Array.make n_threads 0. in
  let mlp = float_of_int m.mlp in
  let level_penalty (level : Hierarchy.level) =
    match level with
    | L1 -> 0.
    | L2 -> float_of_int m.l2.latency
    | LLC -> float_of_int m.llc.latency
    | Dram -> float_of_int m.dram_latency
  in
  let dram_total () = Hierarchy.dram_read_bytes hier + Hierarchy.dram_write_bytes hier in
  (* With [~fast_path:false] the original record sink — one closure
     matching [trace] per event, fed through [Interp]'s record-building
     adapter — is used, keeping the baseline configuration's costs
     faithful to the pre-fast-path simulator. *)
  let reference_sink (e : Event.t) =
    let core = e.thread mod m.cores in
    let write = e.kind = Event.Write in
    let dram_before = match trace with None -> 0 | Some _ -> dram_total () in
    let r = Hierarchy.access hier ~core ~addr:e.addr ~bytes:e.bytes ~write ~nt:e.nt in
    let stall =
      if r.covered then 0.
      else begin
        let p = level_penalty r.level in
        let s = if e.chain then p else p /. mlp in
        stalls.(e.thread) <- stalls.(e.thread) +. s;
        s
      end
    in
    match trace with
    | None -> ()
    | Some f ->
        f
          (Trace.Access
             { thread = e.thread; level = trace_level r.level; covered = r.covered;
               stall; bytes = e.bytes; write; dram_bytes = dram_total () - dram_before })
  in
  (* The fast path is an access hook, selected once on trace presence
     ([n_threads <= m.cores] is enforced above, so thread t is core t);
     the traced variant also reports each access to the profiler. *)
  let sink, access =
    if fast_path = Some false then (Some reference_sink, None)
    else
      match trace with
      | None -> (None, Some (access_hook m hier ~stalls))
      | Some f ->
          let hook ~thread ~addr ~bytes ~write ~chain ~nt =
            let dram_before = dram_total () in
            let r = Hierarchy.access hier ~core:thread ~addr ~bytes ~write ~nt in
            let stall =
              if r.covered then 0.
              else begin
                let p = level_penalty r.level in
                let s = if chain then p else p /. mlp in
                stalls.(thread) <- stalls.(thread) +. s;
                s
              end
            in
            f
              (Trace.Access
                 { thread; level = trace_level r.level; covered = r.covered;
                   stall; bytes; write; dram_bytes = dram_total () - dram_before })
          in
          (None, Some hook)
  in
  let counts = Counts.create n_threads in
  let instructions = ref 0 in
  (* one session for all launches: decode/compile run once, each loop
     iteration is a bare launch *)
  let launch =
    Interp.session ~n_threads ~width:m.simd_width ?access ?sink ?trace
      ?strategy prog mem
  in
  for run = 0 to runs - 1 do
    (match prepare with Some f -> f run mem | None -> ());
    let r = launch () in
    Counts.merge_into ~dst:counts r.counts;
    instructions := !instructions + r.instructions
  done;
  let instructions = !instructions in
  let dram_before_drain = match trace with None -> 0 | Some _ -> dram_total () in
  Hierarchy.drain_writebacks hier;
  (match trace with
  | None -> ()
  | Some f -> f (Trace.Drain { dram_bytes = dram_total () - dram_before_drain }));
  let issue = Array.init n_threads (fun t -> issue_time m counts ~thread:t) in
  let thread_time t = issue.(t) +. stalls.(t) in
  let slowest = ref 0 in
  for t = 1 to n_threads - 1 do
    if thread_time t > thread_time !slowest then slowest := t
  done;
  let chip = thread_time !slowest in
  let dram_bytes = Hierarchy.dram_read_bytes hier + Hierarchy.dram_write_bytes hier in
  let dram_time = float_of_int dram_bytes /. Machine.bytes_per_cycle m in
  let overhead =
    if n_threads > 1 then
      float_of_int m.spawn_cycles
      +. (float_of_int (runs * List.length prog.Isa.phases) *. float_of_int m.barrier_cycles)
    else 0.
  in
  let cycles = Float.max chip dram_time +. overhead in
  let bound =
    if dram_time >= chip then Bandwidth
    else if stalls.(!slowest) > issue.(!slowest) then Latency
    else Compute
  in
  {
    machine = m;
    n_threads;
    cycles;
    seconds = cycles /. (m.freq_ghz *. 1e9);
    issue_cycles = issue.(!slowest);
    stall_cycles = stalls.(!slowest);
    dram_time;
    overhead_cycles = overhead;
    dram_read_bytes = Hierarchy.dram_read_bytes hier;
    dram_write_bytes = Hierarchy.dram_write_bytes hier;
    counts;
    instructions;
    level_accesses =
      [ (Hierarchy.L1, Hierarchy.accesses hier L1);
        (Hierarchy.L2, Hierarchy.accesses hier L2);
        (Hierarchy.LLC, Hierarchy.accesses hier LLC);
        (Hierarchy.Dram, Hierarchy.accesses hier Dram) ];
    bound;
  }

let flops r =
  let w = float_of_int r.machine.simd_width in
  let c cls = float_of_int (Counts.total r.counts cls) in
  (* Scalar FP classes contribute one op each; vector classes one per lane.
     FMA is not separable from the class counts, so kernels that use it are
     counted through the Vfp/Sfp classes (one op per instruction) — a
     conservative undercount documented in DESIGN.md. *)
  c Sfp +. c Sdivsqrt +. c Smath
  +. ((c Vfp +. c Vdivsqrt +. c Vmath) *. w)

let operational_intensity r =
  let bytes = r.dram_read_bytes + r.dram_write_bytes in
  if bytes = 0 then invalid_arg "Timing.operational_intensity: no DRAM traffic";
  flops r /. float_of_int bytes

let speedup ~baseline r = baseline.seconds /. r.seconds

let bound_name = function
  | Compute -> "compute"
  | Bandwidth -> "bandwidth"
  | Latency -> "latency"

let pp_summary ppf r =
  Fmt.pf ppf
    "%s, %d threads: %.3g Mcycles (%.3g ms) [issue %.3g, stall %.3g, dram %.3g], %s-bound, %d B DRAM"
    r.machine.name r.n_threads (r.cycles /. 1e6) (r.seconds *. 1e3)
    (r.issue_cycles /. 1e6) (r.stall_cycles /. 1e6) (r.dram_time /. 1e6)
    (bound_name r.bound)
    (r.dram_read_bytes + r.dram_write_bytes)
