(* Differential machinery for the fast paths introduced alongside the
   self-benchmark:

   - a generator of random verifier-clean programs and an observation of
     one run — final register files, memory, per-thread instruction
     counts, the memory-access event stream, the profiling trace, and —
     for programs that fault — the trap message and the memory state at
     the fault — which test/test_compile.ml uses to hold the compiled
     backend to the tree walker;
   - the cache and hierarchy fast layouts ([~fast_path:true], the default)
     must produce access-by-access identical outcomes and end-of-run
     counters to the reference layouts, including evictions, dirty lines
     and write-back drains. *)

open Ninja_vm
module Machine = Ninja_arch.Machine
module Cache = Ninja_arch.Cache
module Hierarchy = Ninja_arch.Hierarchy

(* ------------------------------------------------------------------ *)
(* Random verifier-clean programs.

   A program is built from an array of random naturals consumed round-robin
   by [next]. All register destinations come from small per-file pools that
   are (re)initialized at the top of every phase, so def-before-use and the
   SPMD discipline hold by construction; every memory index is clamped with
   a power-of-two mask before use, so the verifier's interval analysis
   proves every access in bounds. Shrinking the seed array shrinks the
   program. *)

let data_len = 64 (* "data" (floats) and "idxs" (ints) buffer length *)
let index_mask = 31 (* clamped base + widest strided footprint < data_len *)

type pools = {
  psi : Isa.si_reg array;
  psf : Isa.sf_reg array;
  pvf : Isa.vf_reg array;
  pvi : Isa.vi_reg array;
  pvm : Isa.vm_reg array;
  czero : Isa.si_reg;
  cone : Isa.si_reg;
  cmask : Isa.si_reg; (* index_mask *)
  cmask3 : Isa.si_reg; (* stride clamp *)
  cmaskw : Isa.si_reg; (* width - 1, lane clamp *)
  vmask : Isa.vi_reg; (* index_mask splatted, gather/scatter clamp *)
}

let build_program seed =
  let seed = if Array.length seed = 0 then [| 0 |] else seed in
  let cur = ref 0 in
  let next () =
    let v = seed.(!cur mod Array.length seed) in
    incr cur;
    abs v
  in
  let width = if next () mod 2 = 0 then 4 else 8 in
  let n_threads = 1 + (next () mod 2) in
  let b = Builder.create ~name:"fastpath-fuzz" in
  let data = Builder.buffer_f b "data" in
  let idxs = Builder.buffer_i b "idxs" in
  let p =
    {
      psi = Array.init 5 (fun _ -> Builder.si b);
      psf = Array.init 4 (fun _ -> Builder.sf b);
      pvf = Array.init 4 (fun _ -> Builder.vf b);
      pvi = Array.init 3 (fun _ -> Builder.vi b);
      pvm = Array.init 3 (fun _ -> Builder.vm b);
      czero = Builder.si b;
      cone = Builder.si b;
      cmask = Builder.si b;
      cmask3 = Builder.si b;
      cmaskw = Builder.si b;
      vmask = Builder.vi b;
    }
  in
  let pick arr = arr.(next () mod Array.length arr) in
  let e i = Builder.emit b i in
  (* clamp [r] in place so it is a valid element index *)
  let clamp r = e (Ibin (Iand, r, r, p.cmask)) in
  let clamped () =
    let r = pick p.psi in
    clamp r;
    r
  in
  let clamped_vi () =
    let r = pick p.pvi in
    e (Vibin (Iand, r, r, p.vmask));
    r
  in
  let mask () = if next () mod 2 = 0 then None else Some (pick p.pvm) in
  let ibin_ops =
    [| Isa.Iadd; Isub; Imul; Idiv; Imod; Iand; Ior; Ixor; Ishl; Ishr; Imin; Imax |]
  in
  let fbin_ops = [| Isa.Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax |] in
  let funops = [| Isa.Fneg; Fabs; Fsqrt; Frsqrt; Fexp; Flog; Ffloor |] in
  let cmps = [| Isa.Ceq; Cne; Clt; Cle; Cgt; Cge |] in
  let reds = [| Isa.Rsum; Rmin; Rmax |] in
  let rec stmt depth =
    match next () mod (if depth = 0 then 20 else 24) with
    | 0 -> e (Iconst (pick p.psi, next () mod 16))
    | 1 -> e (Fconst (pick p.psf, float_of_int (next () mod 32) /. 4.))
    | 2 -> e (Ibin (pick ibin_ops, pick p.psi, pick p.psi, pick p.psi))
    | 3 -> e (Fbin (pick fbin_ops, pick p.psf, pick p.psf, pick p.psf))
    | 4 -> e (Fma (pick p.psf, pick p.psf, pick p.psf, pick p.psf))
    | 5 -> e (Funop (pick funops, pick p.psf, pick p.psf))
    | 6 ->
        e (Icmp (pick cmps, pick p.psi, pick p.psi, pick p.psi));
        e (Fcmp (pick cmps, pick p.psi, pick p.psf, pick p.psf))
    | 7 ->
        e (Iselect (pick p.psi, pick p.psi, pick p.psi, pick p.psi));
        e (Fselect (pick p.psf, pick p.psi, pick p.psf, pick p.psf))
    | 8 ->
        e (Fofi (pick p.psf, pick p.psi));
        e (Ioff (pick p.psi, pick p.psf))
    | 9 ->
        let chain = next () mod 2 = 0 in
        e (Loadf { dst = pick p.psf; buf = data; idx = clamped (); chain });
        e (Loadi { dst = pick p.psi; buf = idxs; idx = clamped (); chain })
    | 10 ->
        e (Storef { buf = data; idx = clamped (); src = pick p.psf });
        e (Storei { buf = idxs; idx = clamped (); src = pick p.psi })
    | 11 ->
        e (Vbroadcastf (pick p.pvf, pick p.psf));
        e (Vbroadcasti (pick p.pvi, pick p.psi));
        e (Viota (pick p.pvi))
    | 12 ->
        e (Vfbin (pick fbin_ops, pick p.pvf, pick p.pvf, pick p.pvf));
        e (Vfma (pick p.pvf, pick p.pvf, pick p.pvf, pick p.pvf));
        e (Vfunop (pick funops, pick p.pvf, pick p.pvf));
        e (Vibin (pick ibin_ops, pick p.pvi, pick p.pvi, pick p.pvi))
    | 13 ->
        e (Vfcmp (pick cmps, pick p.pvm, pick p.pvf, pick p.pvf));
        e (Vicmp (pick cmps, pick p.pvm, pick p.pvi, pick p.pvi));
        e (Vselectf (pick p.pvf, pick p.pvm, pick p.pvf, pick p.pvf));
        e (Vselecti (pick p.pvi, pick p.pvm, pick p.pvi, pick p.pvi))
    | 14 ->
        e (Vfofi (pick p.pvf, pick p.pvi));
        e (Vioff (pick p.pvi, pick p.pvf))
    | 15 ->
        let pat = Array.init (1 + (next () mod width)) (fun _ -> next () mod width) in
        e (Vpermutef (pick p.pvf, pick p.pvf, pat));
        let lane = pick p.psi in
        e (Ibin (Iand, lane, lane, p.cmaskw));
        e (Vextractf (pick p.psf, pick p.pvf, lane));
        e (Vinsertf (pick p.pvf, lane, pick p.psf));
        e (Vreducef (pick reds, pick p.psf, pick p.pvf));
        e (Vreducei (pick reds, pick p.psi, pick p.pvi))
    | 16 ->
        e (Mconst (pick p.pvm, next () mod 2 = 0));
        e (Mpattern (pick p.pvm, Array.init (1 + (next () mod 3)) (fun _ -> next () mod 2 = 0)));
        e (Mfirst (pick p.pvm, pick p.psi));
        e (Mnot (pick p.pvm, pick p.pvm));
        e (Mand (pick p.pvm, pick p.pvm, pick p.pvm));
        e (Mor (pick p.pvm, pick p.pvm, pick p.pvm));
        e (Many (pick p.psi, pick p.pvm));
        e (Mall (pick p.psi, pick p.pvm));
        e (Mcount (pick p.psi, pick p.pvm))
    | 17 ->
        (* unit-stride vector memory: masked and unmasked (the unmasked
           forms take the bulk block-transfer fast path; a base equal to
           data_len - width sits exactly on its bounds-check boundary) *)
        let base =
          if next () mod 4 = 0 then begin
            let r = pick p.psi in
            e (Iconst (r, data_len - width));
            r
          end
          else clamped ()
        in
        e (Vloadf { dst = pick p.pvf; buf = data; idx = base; mask = mask () });
        e (Vloadi { dst = pick p.pvi; buf = idxs; idx = base; mask = mask () });
        e (Vstoref { buf = data; idx = base; src = pick p.pvf; mask = mask () });
        e (Vstorei { buf = idxs; idx = base; src = pick p.pvi; mask = mask () });
        if next () mod 2 = 0 then
          e (Vstoref_nt { buf = data; idx = base; src = pick p.pvf })
    | 18 ->
        let stride = pick p.psi in
        e (Ibin (Iand, stride, stride, p.cmask3));
        let base = clamped () in
        e (Vloadf_strided { dst = pick p.pvf; buf = data; idx = base; stride });
        e (Vstoref_strided { buf = data; idx = base; stride; src = pick p.pvf })
    | 19 ->
        let chain = next () mod 2 = 0 in
        let ix = clamped_vi () in
        e (Vgatherf { dst = pick p.pvf; buf = data; idx = ix; mask = mask (); chain });
        e (Vgatheri { dst = pick p.pvi; buf = idxs; idx = ix; mask = mask (); chain });
        e (Vscatterf { buf = data; idx = ix; src = pick p.pvf; mask = mask () });
        e (Vscatteri { buf = idxs; idx = ix; src = pick p.pvi; mask = mask () })
    | 20 ->
        let lo = Builder.iconst b (next () mod 4) in
        let hi = Builder.iconst b (next () mod 6) in
        let step = Builder.iconst b (1 + (next () mod 2)) in
        Builder.for_ b ~lo ~hi ~step (fun i ->
            e (Ibin (Iadd, pick p.psi, i, pick p.psi));
            block (depth - 1))
    | 21 ->
        Builder.if_ b ~cond:(pick p.psi)
          ~else_:(fun () -> block (depth - 1))
          (fun () -> block (depth - 1))
    | 22 ->
        let k = Builder.si b in
        e (Iconst (k, next () mod 4));
        Builder.while_ b
          ~cond:(fun () ->
            let c = Builder.si b in
            e (Icmp (Cgt, c, k, p.czero));
            c)
          (fun () ->
            e (Ibin (Isub, k, k, p.cone));
            block (depth - 1))
    | _ -> Builder.region b "fuzz-region" (fun () -> block (depth - 1))
  and block depth =
    for _ = 1 to 1 + (next () mod 4) do
      stmt depth
    done
  in
  let phase body =
    (* initialize every pool register and clamp constant *)
    e (Iconst (p.czero, 0));
    e (Iconst (p.cone, 1));
    e (Iconst (p.cmask, index_mask));
    e (Iconst (p.cmask3, 3));
    e (Iconst (p.cmaskw, width - 1));
    e (Vbroadcasti (p.vmask, p.cmask));
    Array.iter (fun r -> e (Iconst (r, next () mod 16))) p.psi;
    (* one pool register sees the thread id, so Par phases diverge *)
    e (Imov (p.psi.(0), Isa.thread_id_reg));
    Array.iter (fun r -> e (Fconst (r, float_of_int (next () mod 24) /. 8.))) p.psf;
    Array.iter (fun r -> e (Vbroadcastf (r, pick p.psf))) p.pvf;
    Array.iter (fun r -> e (Vbroadcasti (r, pick p.psi))) p.pvi;
    Array.iter (fun r -> e (Mfirst (r, pick p.psi))) p.pvm;
    body ()
  in
  for _ = 1 to 1 + (next () mod 2) do
    if next () mod 2 = 0 then Builder.par_phase b (fun () -> phase (fun () -> block 2))
    else Builder.seq_phase b (fun () -> phase (fun () -> block 2))
  done;
  (Builder.finish b, n_threads, width)

(* ------------------------------------------------------------------ *)
(* Observing one run: everything the two strategies must agree on.
   [?decoded] executes a pre-supplied (possibly mutated) flat form
   through the compiled backend instead of decoding [prog]. *)

type observation = {
  o_outcome : (int * int array array, string) result;
      (* Ok (instructions, per-thread count rows) or Error trap-message *)
  o_events : Event.t list;
  o_trace : string list; (* rendered profiling events, in order *)
  o_states : (int array * float array * float array array * int array array * bool array array) array;
  o_data : float array;
  o_idxs : int array;
}

let fdata_init = Array.init data_len (fun i -> (float_of_int (i mod 7) /. 2.) -. 1.)
let idata_init = Array.init data_len (fun i -> ((i * 5) + 3) mod data_len)

let observe ~strategy ~tracing ?decoded ~n_threads ~width prog =
  let mem =
    Memory.create prog
      [ ("data", Memory.Fbuf (Array.copy fdata_init));
        ("idxs", Memory.Ibuf (Array.copy idata_init)) ]
  in
  let events = ref [] and trace = ref [] and states = ref [||] in
  let sink ev = events := ev :: !events in
  let tracer = if tracing then Some (fun ev -> trace := Fmt.str "%a" Trace.pp ev :: !trace) else None in
  let o_outcome =
    match
      Interp.run ~n_threads ~width ~sink ?trace:tracer ~fuel:50_000 ~strategy
        ?decoded ~on_states:(fun s -> states := s)
        prog mem
    with
    | r ->
        Ok
          ( r.Interp.instructions,
            Array.init n_threads (fun thread ->
                Array.copy (Counts.thread_row r.Interp.counts ~thread)) )
    | exception Interp.Trap m -> Error m
  in
  let arr name =
    match Memory.find mem name with
    | _, Memory.Fbuf a -> `F (Array.copy a)
    | _, Memory.Ibuf a -> `I (Array.copy a)
  in
  let o_data = match arr "data" with `F a -> a | `I _ -> assert false in
  let o_idxs = match arr "idxs" with `I a -> a | `F _ -> assert false in
  {
    o_outcome;
    o_events = !events;
    o_trace = !trace;
    o_states =
      Array.map
        (fun (s : Interp.thread_state) -> (s.si, s.sf, s.vf, s.vi, s.vm))
        !states;
    o_data;
    o_idxs;
  }

(* [compare] (not [=]) so NaNs produced by Fsqrt/Flog of out-of-domain
   inputs count as equal to themselves. *)
let diff_observations a b =
  if compare a.o_outcome b.o_outcome <> 0 then Some "outcome (instructions/counts/trap)"
  else if compare a.o_events b.o_events <> 0 then Some "memory-access event stream"
  else if compare a.o_trace b.o_trace <> 0 then Some "profiling trace"
  else if compare a.o_states b.o_states <> 0 then Some "final register state"
  else if compare a.o_data b.o_data <> 0 then Some "float buffer contents"
  else if compare a.o_idxs b.o_idxs <> 0 then Some "int buffer contents"
  else None

let seed_arb =
  QCheck.make
    ~print:(fun a -> Fmt.str "%a" Fmt.(Dump.array int) a)
    ~shrink:QCheck.Shrink.array
    QCheck.Gen.(array_size (4 -- 48) (int_bound 1_000_000))

(* ------------------------------------------------------------------ *)
(* Cache: fast layout vs reference layout on identical access streams,
   with same-line repeats (the MRU memo) and mid-stream invalidations. *)

let cache_stream_arb =
  QCheck.make
    ~print:(fun (s, a, tr) ->
      Fmt.str "sets=%d assoc=%d trace=%a" s a Fmt.(Dump.list (Dump.pair int bool)) tr)
    QCheck.Gen.(
      triple
        (oneofl [ 1; 2; 3; 4; 12; 16 ]) (* 3 and 12 sets: the non-power-of-two path *)
        (oneofl [ 1; 2; 4; 8 ])
        (list_size (1 -- 300) (pair (int_bound 60) bool)))

let prop_cache_fast_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"cache fast layout = reference layout (outcomes, stats, dirty lines)"
    cache_stream_arb
    (fun (n_sets, assoc, trace) ->
      let cfg : Machine.cache_cfg =
        { size_bytes = n_sets * assoc * 64; assoc; line_bytes = 64; latency = 1 }
      in
      let fast = Cache.create ~fast_path:true cfg in
      let refc = Cache.create ~fast_path:false cfg in
      let step (line_addr, write) =
        (* every third access repeats immediately with the other kind, so
           the MRU memo path is exercised with both read and write hits *)
        let probes =
          if line_addr mod 3 = 0 then [ (line_addr, write); (line_addr, not write) ]
          else [ (line_addr, write) ]
        in
        List.for_all
          (fun (line_addr, write) ->
            let a = Cache.access fast ~line_addr ~write in
            let b = Cache.access refc ~line_addr ~write in
            if a <> b then
              QCheck.Test.fail_reportf "line %d write %b: fast %d, ref %d"
                line_addr write a b
            else true)
          probes
        &&
        (if line_addr mod 17 = 13 then begin
           (* mid-stream invalidation must also clear the MRU memo *)
           Cache.invalidate_all fast;
           Cache.invalidate_all refc
         end;
         true)
      in
      List.for_all step trace
      && Cache.stats_hits fast = Cache.stats_hits refc
      && Cache.stats_misses fast = Cache.stats_misses refc
      && Cache.dirty_lines fast = Cache.dirty_lines refc
      && List.for_all
           (fun line_addr ->
             Cache.probe fast ~line_addr = Cache.probe refc ~line_addr)
           (List.init 61 Fun.id))

(* ------------------------------------------------------------------ *)
(* Hierarchy: fast vs reference caches under a multi-level machine with
   tiny caches (so capacity evictions, writebacks and LLC sharing all
   happen), ending with a write-back drain. *)

let tiny_machine : Machine.t =
  {
    Machine.westmere with
    name = "tiny";
    cores = 2;
    l1 = { size_bytes = 256; assoc = 2; line_bytes = 64; latency = 1 };
    l2 = { size_bytes = 512; assoc = 2; line_bytes = 64; latency = 4 };
    llc = { size_bytes = 1536; assoc = 4; line_bytes = 64; latency = 20 };
  }

let hierarchy_stream_arb =
  QCheck.make
    ~print:(fun tr ->
      Fmt.str "%a" Fmt.(Dump.list (fun ppf (c, a, b, w, nt) ->
          Fmt.pf ppf "(core %d, addr %d, bytes %d, write %b, nt %b)" c a b w nt))
        tr)
    QCheck.Gen.(
      list_size (1 -- 250)
        (map
           (fun (core, addr, bytes, write, nt) ->
             (core, addr, bytes, write, write && nt))
           (tup5 (int_bound 1) (int_bound 8192)
              (oneofl [ 1; 4; 16; 64; 128 ])
              bool bool)))

let prop_hierarchy_fast_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"hierarchy fast path = reference (levels, traffic, drains)"
    hierarchy_stream_arb
    (fun trace ->
      let fast = Hierarchy.create ~fast_path:true tiny_machine in
      let refh = Hierarchy.create ~fast_path:false tiny_machine in
      let same_counters () =
        Hierarchy.dram_read_bytes fast = Hierarchy.dram_read_bytes refh
        && Hierarchy.dram_write_bytes fast = Hierarchy.dram_write_bytes refh
        && List.for_all
             (fun l -> Hierarchy.accesses fast l = Hierarchy.accesses refh l)
             [ Hierarchy.L1; Hierarchy.L2; Hierarchy.LLC; Hierarchy.Dram ]
      in
      List.for_all
        (fun (core, addr, bytes, write, nt) ->
          let a = Hierarchy.access fast ~core ~addr ~bytes ~write ~nt in
          let b = Hierarchy.access refh ~core ~addr ~bytes ~write ~nt in
          if a <> b then
            QCheck.Test.fail_reportf
              "core %d addr %d bytes %d write %b nt %b: fast %s/%b, ref %s/%b" core
              addr bytes write nt
              (Hierarchy.level_name a.Hierarchy.level)
              a.Hierarchy.covered
              (Hierarchy.level_name b.Hierarchy.level)
              b.Hierarchy.covered
          else true)
        trace
      && same_counters ()
      &&
      (Hierarchy.drain_writebacks fast;
       Hierarchy.drain_writebacks refh;
       same_counters ())
      &&
      (Hierarchy.reset fast;
       Hierarchy.reset refh;
       Hierarchy.dram_read_bytes fast = 0
       && Hierarchy.dram_write_bytes fast = 0
       && same_counters ()))

let suite =
  ( "fastpath",
    [ QCheck_alcotest.to_alcotest prop_cache_fast_matches_reference;
      QCheck_alcotest.to_alcotest prop_hierarchy_fast_matches_reference ] )
