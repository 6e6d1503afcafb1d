(* Closure-compiled execution backend: threaded code for decoded op arrays.

   A dispatch-loop interpreter over {!Decode}'s arrays would pay, per
   dynamic op, a [match] over the [Decode.dop] tag, a second [match] over
   [Isa.instr] for straight-line ops, the register-wrapper field reads,
   and the full count/instructions/fuel bookkeeping. This module removes
   all of that by compiling each phase's op array once per run into
   chained OCaml closures (classic threaded code):

   - every straight-line op becomes a pre-resolved action closure: operand
     indices, the operator, the mask slot and the memory hook are resolved
     at compile time, so executing the op is one indirect call into
     specialized code;
   - basic blocks (maximal straight-line runs between branch targets)
     become superinstruction closures: the block's actions run back to
     back with no dispatch in between, and its count/instruction/fuel
     bookkeeping is hoisted into per-segment batch increments;
   - control ops compile to closures that tail-call the successor closure
     through a node table — the loop back edge is a single compare +
     direct jump to the body's block closure.

   Memory ops. Every buffer an op names is resolved once, at compile
   time, to its live array and modeled base address ({!Memory.resolve}).
   At run time a scalar access, each active lane of a masked, strided,
   gather or scatter access, and the whole range of an unmasked
   unit-stride access pass one bounds check and then read or write the
   [float array]/[int array] directly — no boxed float, no accessor call.
   The access then reaches its consumers through [ctx.hook], the
   session's one {!Event.hook}, called with immediates and the address
   precomputed as [base + 4 * idx]; untraced, nothing on this path
   allocates. The fallback contract: an index that fails the check — or
   any access to a buffer of the other element type, which resolves to
   an empty array — goes through the checked accessor ([Memory.get_f]
   and kin), which raises the tree walker's exact trap. Lanes before the
   faulting one have already been written and hooked, as in the tree
   walker, so trap messages, partial lane writes and event prefixes are
   identical.

   Compiled closures take the per-thread execution state ({!tctx}: register
   files, counts row, thread id) as an argument rather than
   capturing it, so one compilation is shared by every simulated thread of
   a parallel phase — compile cost is per (phase, run), not per (phase,
   thread, run), which is what makes the backend profitable on short
   many-thread jobs. Reading a field of the [tctx] argument costs the same
   one load as reading a closure environment slot, so per-op execution is
   not slower for it.

   Observable equivalence. The compiled program produces bit-identical
   registers, memory, {!Counts} rows, totals, event streams, traces and
   traps to [Interp]'s tree walker, with one documented waiver on *when*
   a fuel trap fires. Batched bookkeeping charges a run of ops at once:
   a loop edge's Salu + Branch pair is one step, and a straight-line
   segment of n ops is one step. The batched fuel decrement may therefore
   trap up to n-1 ops early, which is only allowed because the observable
   state at the trap is identical — the counts die with the exception,
   and no memory write or event sits inside the batch. To keep trap
   *messages* and event prefixes exact, a batch segment never extends
   past an op that can trap or emit memory events — such ops terminate
   their segment, so "fuel exhausted" still wins exactly when the
   cumulative cost exceeds the fuel, and no event can precede a fuel trap
   that the reference would have refused. When a trace sink is attached,
   compilation falls back to per-op bookkeeping closures, so the
   [Trace.Op] prefix at a fuel trap is exact and the stream keeps its
   per-op order; execution is still threaded.

   Equivalence is property-tested Tree vs Compiled in
   test/test_compile.ml, including trap fixtures for every memory-op
   fallback and seeded miscompilation mutants that the differential must
   refute. *)

type tctx = {
  si : int array;
  sf : float array;
  vf : float array array;
  vi : int array array;
  vm : bool array array;
  row : int array;
  thread : int;
}

type ctx = {
  mem : Memory.t;
  width : int;
  scratch : float array;
  all_true : bool array;
  instructions : int ref;
  fuel : int ref;
  prog_name : string;
  for_cur : int array;
  for_hi : int array;
  for_step : int array;
  trace : Trace.sink option;
  hook : Event.hook;
}

(* Lane accesses below use [Array.unsafe_get]/[Array.unsafe_set]
   directly (the primitives inline to a bare load/store even without
   flambda; a named wrapper would not). The lane variable [l] is always
   in [0, width) by loop construction and every vector-register row is
   built with exactly [width] slots, so skipping the bounds check is
   sound. A resolved memory array is indexed unchecked only after the
   arm's own bounds test has passed (see the header). Register-file
   indexing stays checked: the compiler-mutation differentials execute
   deliberately broken op arrays, which must fault exactly like the tree
   walker does. *)

(* Pre-resolved count-row indices for the loop-edge and branch
   bookkeeping. *)
let salu_idx = Isa.op_class_index Isa.Salu
let branch_idx = Isa.op_class_index Isa.Branch

(* Ops whose action can raise a trap (division, lane checks, any memory
   access) or emit observable memory events. They terminate a bookkeeping
   segment: batching must never move a fuel trap across an event or turn
   an op's own trap into a premature fuel trap (see module comment). *)
let instr_barrier (ins : Isa.instr) =
  match ins with
  | Ibin ((Idiv | Imod), _, _, _) | Vibin ((Idiv | Imod), _, _, _)
  | Vpermutef _ | Vextractf _ | Vinsertf _
  | Loadf _ | Loadi _ | Storef _ | Storei _
  | Vloadf _ | Vloadi _ | Vloadf_strided _
  | Vgatherf _ | Vgatheri _
  | Vstoref _ | Vstorei _ | Vstoref_nt _ | Vstoref_strided _
  | Vscatterf _ | Vscatteri _ -> true
  | _ -> false

let compile ctx (code : Decode.dop array) : tctx -> unit =
  let mem = ctx.mem and width = ctx.width in
  let scratch = ctx.scratch and all_true = ctx.all_true in
  let instructions = ctx.instructions and fuel = ctx.fuel in
  let prog_name = ctx.prog_name in
  let for_cur = ctx.for_cur and for_hi = ctx.for_hi
  and for_step = ctx.for_step in
  let trace = ctx.trace and hook = ctx.hook in
  (* Buffer resolution, once per compilation: the live array and the
     modeled base address (see the memory-op contract in the header). A
     buffer of the other element type resolves to an empty array, so its
     every access takes the checked fallback — which traps. *)
  let floats buf =
    match Memory.resolve mem buf with
    | Memory.Fbuf a, base -> (a, base)
    | Memory.Ibuf _, base -> ([||], base)
  in
  let ints buf =
    match Memory.resolve mem buf with
    | Memory.Ibuf a, base -> (a, base)
    | Memory.Fbuf _, base -> ([||], base)
  in
  (* Mask slot resolution, compile-time specialized: the unmasked case is
     a constant, the masked case one row read from the argument state. *)
  let act_get = function
    | None -> fun (_ : tctx) -> all_true
    | Some (Isa.Vm m) -> fun (t : tctx) -> t.vm.(m)
  in
  let emit_lanes_act =
    match trace with
    | None -> fun (_ : tctx) _ -> ()
    | Some f ->
        fun (t : tctx) act ->
          let active =
            Array.fold_left (fun a b -> if b then a + 1 else a) 0 act
          in
          f (Trace.Lanes { thread = t.thread; active; width })
  in
  (* Semantic effect of one straight-line instruction, with operands,
     operators and masks resolved now; the semantics are the tree
     walker's, arm for arm. *)
  let action_of_instr (instr : Isa.instr) : tctx -> unit =
    match instr with
    | Iconst (Si d, n) -> fun t -> t.si.(d) <- n
    | Fconst (Sf d, x) -> fun t -> t.sf.(d) <- x
    | Imov (Si d, Si a) ->
        fun t ->
          let si = t.si in
          si.(d) <- si.(a)
    | Fmov (Sf d, Sf a) ->
        fun t ->
          let sf = t.sf in
          sf.(d) <- sf.(a)
    | Ibin (op, Si d, Si a, Si b) -> (
        match op with
        | Iadd ->
            fun t ->
              let si = t.si in
              si.(d) <- si.(a) + si.(b)
        | Isub ->
            fun t ->
              let si = t.si in
              si.(d) <- si.(a) - si.(b)
        | Imul ->
            fun t ->
              let si = t.si in
              si.(d) <- si.(a) * si.(b)
        | Idiv ->
            fun t ->
              let si = t.si in
              let b = si.(b) in
              si.(d) <-
                (if b = 0 then Memory.trap "integer division by zero"
                 else si.(a) / b)
        | Imod ->
            fun t ->
              let si = t.si in
              let b = si.(b) in
              si.(d) <-
                (if b = 0 then Memory.trap "integer modulo by zero"
                 else si.(a) mod b)
        | Iand ->
            fun t ->
              let si = t.si in
              si.(d) <- si.(a) land si.(b)
        | Ior ->
            fun t ->
              let si = t.si in
              si.(d) <- si.(a) lor si.(b)
        | Ixor ->
            fun t ->
              let si = t.si in
              si.(d) <- si.(a) lxor si.(b)
        | Ishl ->
            fun t ->
              let si = t.si in
              si.(d) <- si.(a) lsl si.(b)
        | Ishr ->
            fun t ->
              let si = t.si in
              si.(d) <- si.(a) asr si.(b)
        | Imin ->
            fun t ->
              let si = t.si in
              let a = si.(a) and b = si.(b) in
              si.(d) <- (if a <= b then a else b)
        | Imax ->
            fun t ->
              let si = t.si in
              let a = si.(a) and b = si.(b) in
              si.(d) <- (if a >= b then a else b))
    | Fbin (op, Sf d, Sf a, Sf b) -> (
        match op with
        | Fadd ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- sf.(a) +. sf.(b)
        | Fsub ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- sf.(a) -. sf.(b)
        | Fmul ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- sf.(a) *. sf.(b)
        | Fdiv ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- sf.(a) /. sf.(b)
        | Fmin ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- Float.min sf.(a) sf.(b)
        | Fmax ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- Float.max sf.(a) sf.(b))
    | Fma (Sf d, Sf a, Sf b, Sf c) ->
        fun t ->
          let sf = t.sf in
          sf.(d) <- (sf.(a) *. sf.(b)) +. sf.(c)
    | Funop (op, Sf d, Sf a) -> (
        match op with
        | Fneg ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- -.sf.(a)
        | Fabs ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- Float.abs sf.(a)
        | Fsqrt ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- Float.sqrt sf.(a)
        | Frsqrt ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- 1. /. Float.sqrt sf.(a)
        | Fexp ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- Float.exp sf.(a)
        | Flog ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- Float.log sf.(a)
        | Ffloor ->
            fun t ->
              let sf = t.sf in
              sf.(d) <- Float.floor sf.(a))
    | Icmp (op, Si d, Si a, Si b) -> (
        match op with
        | Ceq ->
            fun t ->
              let si = t.si in
              si.(d) <- (if si.(a) = si.(b) then 1 else 0)
        | Cne ->
            fun t ->
              let si = t.si in
              si.(d) <- (if si.(a) <> si.(b) then 1 else 0)
        | Clt ->
            fun t ->
              let si = t.si in
              si.(d) <- (if si.(a) < si.(b) then 1 else 0)
        | Cle ->
            fun t ->
              let si = t.si in
              si.(d) <- (if si.(a) <= si.(b) then 1 else 0)
        | Cgt ->
            fun t ->
              let si = t.si in
              si.(d) <- (if si.(a) > si.(b) then 1 else 0)
        | Cge ->
            fun t ->
              let si = t.si in
              si.(d) <- (if si.(a) >= si.(b) then 1 else 0))
    | Fcmp (op, Si d, Sf a, Sf b) -> (
        match op with
        | Ceq ->
            fun t ->
              let sf = t.sf in
              t.si.(d) <- (if Float.equal sf.(a) sf.(b) then 1 else 0)
        | Cne ->
            fun t ->
              let sf = t.sf in
              t.si.(d) <- (if not (Float.equal sf.(a) sf.(b)) then 1 else 0)
        | Clt ->
            fun t ->
              let sf = t.sf in
              t.si.(d) <- (if sf.(a) < sf.(b) then 1 else 0)
        | Cle ->
            fun t ->
              let sf = t.sf in
              t.si.(d) <- (if sf.(a) <= sf.(b) then 1 else 0)
        | Cgt ->
            fun t ->
              let sf = t.sf in
              t.si.(d) <- (if sf.(a) > sf.(b) then 1 else 0)
        | Cge ->
            fun t ->
              let sf = t.sf in
              t.si.(d) <- (if sf.(a) >= sf.(b) then 1 else 0))
    | Iselect (Si d, Si c, Si a, Si b) ->
        fun t ->
          let si = t.si in
          si.(d) <- (if si.(c) <> 0 then si.(a) else si.(b))
    | Fselect (Sf d, Si c, Sf a, Sf b) ->
        fun t ->
          let sf = t.sf in
          sf.(d) <- (if t.si.(c) <> 0 then sf.(a) else sf.(b))
    | Fofi (Sf d, Si a) -> fun t -> t.sf.(d) <- float_of_int t.si.(a)
    | Ioff (Si d, Sf a) -> fun t -> t.si.(d) <- int_of_float t.sf.(a)
    | Loadf { dst = Sf dst; buf; idx = Si idx; chain } ->
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          let i = t.si.(idx) in
          if i >= 0 && i < n then t.sf.(dst) <- Array.unsafe_get a i
          else t.sf.(dst) <- Memory.get_f mem buf i;
          hook ~thread:t.thread ~addr:(abase + (4 * i)) ~bytes:4 ~write:false
            ~chain ~nt:false
    | Loadi { dst = Si dst; buf; idx = Si idx; chain } ->
        let a, abase = ints buf in
        let n = Array.length a in
        fun t ->
          let si = t.si in
          let i = si.(idx) in
          if i >= 0 && i < n then si.(dst) <- Array.unsafe_get a i
          else si.(dst) <- Memory.get_i mem buf i;
          hook ~thread:t.thread ~addr:(abase + (4 * i)) ~bytes:4 ~write:false
            ~chain ~nt:false
    | Storef { buf; idx = Si idx; src = Sf src } ->
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          let i = t.si.(idx) in
          if i >= 0 && i < n then Array.unsafe_set a i t.sf.(src)
          else Memory.set_f mem buf i t.sf.(src);
          hook ~thread:t.thread ~addr:(abase + (4 * i)) ~bytes:4 ~write:true
            ~chain:false ~nt:false
    | Storei { buf; idx = Si idx; src = Si src } ->
        let a, abase = ints buf in
        let n = Array.length a in
        fun t ->
          let si = t.si in
          let i = si.(idx) in
          if i >= 0 && i < n then Array.unsafe_set a i si.(src)
          else Memory.set_i mem buf i si.(src);
          hook ~thread:t.thread ~addr:(abase + (4 * i)) ~bytes:4 ~write:true
            ~chain:false ~nt:false
    | Vmovf (Vf d, Vf a) ->
        fun t ->
          let vf = t.vf in
          Array.blit vf.(a) 0 vf.(d) 0 width
    | Vmovi (Vi d, Vi a) ->
        fun t ->
          let vi = t.vi in
          Array.blit vi.(a) 0 vi.(d) 0 width
    | Vbroadcastf (Vf d, Sf a) ->
        fun t ->
          (* a loop, not [Array.fill]: the polymorphic fill boxes *)
          let d = t.vf.(d) and x = t.sf.(a) in
          for l = 0 to width - 1 do Array.unsafe_set d l x done
    | Vbroadcasti (Vi d, Si a) ->
        fun t -> Array.fill t.vi.(d) 0 width t.si.(a)
    | Viota (Vi d) ->
        fun t ->
          let v = t.vi.(d) in
          for l = 0 to width - 1 do Array.unsafe_set v l (l) done
    | Vfbin (op, Vf d, Vf a, Vf b) -> (
        match op with
        | Fadd ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) +. (Array.unsafe_get b l)) done
        | Fsub ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) -. (Array.unsafe_get b l)) done
        | Fmul ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) *. (Array.unsafe_get b l)) done
        | Fdiv ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) /. (Array.unsafe_get b l)) done
        | Fmin ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l (Float.min (Array.unsafe_get a l) (Array.unsafe_get b l)) done
        | Fmax ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l (Float.max (Array.unsafe_get a l) (Array.unsafe_get b l)) done)
    | Vfma (Vf d, Vf a, Vf b, Vf c) ->
        fun t ->
          let vf = t.vf in
          let d = vf.(d) and a = vf.(a) and b = vf.(b) and c = vf.(c) in
          for l = 0 to width - 1 do Array.unsafe_set d l (((Array.unsafe_get a l) *. (Array.unsafe_get b l)) +. (Array.unsafe_get c l)) done
    | Vfunop (op, Vf d, Vf a) -> (
        match op with
        | Fneg ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) in
              for l = 0 to width - 1 do Array.unsafe_set d l (-.(Array.unsafe_get a l)) done
        | Fabs ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) in
              for l = 0 to width - 1 do Array.unsafe_set d l (Float.abs (Array.unsafe_get a l)) done
        | Fsqrt ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) in
              for l = 0 to width - 1 do Array.unsafe_set d l (Float.sqrt (Array.unsafe_get a l)) done
        | Frsqrt ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) in
              for l = 0 to width - 1 do Array.unsafe_set d l (1. /. Float.sqrt (Array.unsafe_get a l)) done
        | Fexp ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) in
              for l = 0 to width - 1 do Array.unsafe_set d l (Float.exp (Array.unsafe_get a l)) done
        | Flog ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) in
              for l = 0 to width - 1 do Array.unsafe_set d l (Float.log (Array.unsafe_get a l)) done
        | Ffloor ->
            fun t ->
              let vf = t.vf in
              let d = vf.(d) and a = vf.(a) in
              for l = 0 to width - 1 do Array.unsafe_set d l (Float.floor (Array.unsafe_get a l)) done)
    | Vibin (op, Vi d, Vi a, Vi b) -> (
        match op with
        | Iadd ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) + (Array.unsafe_get b l)) done
        | Isub ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) - (Array.unsafe_get b l)) done
        | Imul ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) * (Array.unsafe_get b l)) done
        | Idiv ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do
                Array.unsafe_set d l
                  (if (Array.unsafe_get b l) = 0 then Memory.trap "integer division by zero"
                   else (Array.unsafe_get a l) / (Array.unsafe_get b l))
              done
        | Imod ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do
                Array.unsafe_set d l
                  (if (Array.unsafe_get b l) = 0 then Memory.trap "integer modulo by zero"
                   else (Array.unsafe_get a l) mod (Array.unsafe_get b l))
              done
        | Iand ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) land (Array.unsafe_get b l)) done
        | Ior ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) lor (Array.unsafe_get b l)) done
        | Ixor ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) lxor (Array.unsafe_get b l)) done
        | Ishl ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) lsl (Array.unsafe_get b l)) done
        | Ishr ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) asr (Array.unsafe_get b l)) done
        | Imin ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do
                Array.unsafe_set d l ((if (Array.unsafe_get a l) <= (Array.unsafe_get b l) then (Array.unsafe_get a l) else (Array.unsafe_get b l)))
              done
        | Imax ->
            fun t ->
              let vi = t.vi in
              let d = vi.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do
                Array.unsafe_set d l ((if (Array.unsafe_get a l) >= (Array.unsafe_get b l) then (Array.unsafe_get a l) else (Array.unsafe_get b l)))
              done)
    | Vfcmp (op, Vm d, Vf a, Vf b) -> (
        match op with
        | Ceq ->
            fun t ->
              let vf = t.vf in
              let d = t.vm.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l (Float.equal (Array.unsafe_get a l) (Array.unsafe_get b l)) done
        | Cne ->
            fun t ->
              let vf = t.vf in
              let d = t.vm.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do
                Array.unsafe_set d l (not (Float.equal (Array.unsafe_get a l) (Array.unsafe_get b l)))
              done
        | Clt ->
            fun t ->
              let vf = t.vf in
              let d = t.vm.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) < (Array.unsafe_get b l)) done
        | Cle ->
            fun t ->
              let vf = t.vf in
              let d = t.vm.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) <= (Array.unsafe_get b l)) done
        | Cgt ->
            fun t ->
              let vf = t.vf in
              let d = t.vm.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) > (Array.unsafe_get b l)) done
        | Cge ->
            fun t ->
              let vf = t.vf in
              let d = t.vm.(d) and a = vf.(a) and b = vf.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) >= (Array.unsafe_get b l)) done)
    | Vicmp (op, Vm d, Vi a, Vi b) -> (
        match op with
        | Ceq ->
            fun t ->
              let vi = t.vi in
              let d = t.vm.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) = (Array.unsafe_get b l)) done
        | Cne ->
            fun t ->
              let vi = t.vi in
              let d = t.vm.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) <> (Array.unsafe_get b l)) done
        | Clt ->
            fun t ->
              let vi = t.vi in
              let d = t.vm.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) < (Array.unsafe_get b l)) done
        | Cle ->
            fun t ->
              let vi = t.vi in
              let d = t.vm.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) <= (Array.unsafe_get b l)) done
        | Cgt ->
            fun t ->
              let vi = t.vi in
              let d = t.vm.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) > (Array.unsafe_get b l)) done
        | Cge ->
            fun t ->
              let vi = t.vi in
              let d = t.vm.(d) and a = vi.(a) and b = vi.(b) in
              for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) >= (Array.unsafe_get b l)) done)
    | Vselectf (Vf d, Vm m, Vf a, Vf b) ->
        fun t ->
          let vf = t.vf in
          let d = vf.(d) and m = t.vm.(m) and a = vf.(a) and b = vf.(b) in
          for l = 0 to width - 1 do
            Array.unsafe_set d l ((if (Array.unsafe_get m l) then (Array.unsafe_get a l) else (Array.unsafe_get b l)))
          done
    | Vselecti (Vi d, Vm m, Vi a, Vi b) ->
        fun t ->
          let vi = t.vi in
          let d = vi.(d) and m = t.vm.(m) and a = vi.(a) and b = vi.(b) in
          for l = 0 to width - 1 do
            Array.unsafe_set d l ((if (Array.unsafe_get m l) then (Array.unsafe_get a l) else (Array.unsafe_get b l)))
          done
    | Vfofi (Vf d, Vi a) ->
        fun t ->
          let d = t.vf.(d) and a = t.vi.(a) in
          for l = 0 to width - 1 do Array.unsafe_set d l (float_of_int (Array.unsafe_get a l)) done
    | Vioff (Vi d, Vf a) ->
        fun t ->
          let d = t.vi.(d) and a = t.vf.(a) in
          for l = 0 to width - 1 do Array.unsafe_set d l (int_of_float (Array.unsafe_get a l)) done
    | Vpermutef (Vf d, Vf a, pat) ->
        let n = Array.length pat in
        fun t ->
          let vf = t.vf in
          let d = vf.(d) and a = vf.(a) in
          for l = 0 to width - 1 do
            let s = pat.(l mod n) in
            if s < 0 || s >= width then
              Memory.trap "vperm lane %d out of range" s;
            Array.unsafe_set scratch l (a.(s))
          done;
          Array.blit scratch 0 d 0 width
    | Vextractf (Sf d, Vf a, Si lane) ->
        fun t ->
          let l = t.si.(lane) in
          if l < 0 || l >= width then
            Memory.trap "vextract lane %d out of range" l;
          t.sf.(d) <- (Array.unsafe_get t.vf.(a) l)
    | Vinsertf (Vf d, Si lane, Sf a) ->
        fun t ->
          let l = t.si.(lane) in
          if l < 0 || l >= width then
            Memory.trap "vinsert lane %d out of range" l;
          Array.unsafe_set t.vf.(d) l (t.sf.(a))
    | Vreducef (r, Sf d, Vf a) -> (
        match r with
        | Rsum ->
            fun t ->
              let a = t.vf.(a) in
              let acc = ref a.(0) in
              for l = 1 to width - 1 do acc := !acc +. (Array.unsafe_get a l) done;
              t.sf.(d) <- !acc
        | Rmin ->
            fun t ->
              let a = t.vf.(a) in
              let acc = ref a.(0) in
              for l = 1 to width - 1 do acc := Float.min !acc (Array.unsafe_get a l) done;
              t.sf.(d) <- !acc
        | Rmax ->
            fun t ->
              let a = t.vf.(a) in
              let acc = ref a.(0) in
              for l = 1 to width - 1 do acc := Float.max !acc (Array.unsafe_get a l) done;
              t.sf.(d) <- !acc)
    | Vreducei (r, Si d, Vi a) -> (
        match r with
        | Rsum ->
            fun t ->
              let a = t.vi.(a) in
              let acc = ref a.(0) in
              for l = 1 to width - 1 do acc := !acc + (Array.unsafe_get a l) done;
              t.si.(d) <- !acc
        | Rmin ->
            fun t ->
              let a = t.vi.(a) in
              let acc = ref a.(0) in
              for l = 1 to width - 1 do
                if (Array.unsafe_get a l) < !acc then acc := (Array.unsafe_get a l)
              done;
              t.si.(d) <- !acc
        | Rmax ->
            fun t ->
              let a = t.vi.(a) in
              let acc = ref a.(0) in
              for l = 1 to width - 1 do
                if (Array.unsafe_get a l) > !acc then acc := (Array.unsafe_get a l)
              done;
              t.si.(d) <- !acc)
    | Mconst (Vm d, v) -> fun t -> Array.fill t.vm.(d) 0 width v
    | Mpattern (Vm d, pat) ->
        let n = Array.length pat in
        fun t ->
          let d = t.vm.(d) in
          for l = 0 to width - 1 do Array.unsafe_set d l (pat.(l mod n)) done
    | Mfirst (Vm d, Si n) ->
        fun t ->
          let d = t.vm.(d) in
          let n = t.si.(n) in
          for l = 0 to width - 1 do Array.unsafe_set d l (l < n) done
    | Mnot (Vm d, Vm a) ->
        fun t ->
          let vm = t.vm in
          let d = vm.(d) and a = vm.(a) in
          for l = 0 to width - 1 do Array.unsafe_set d l (not (Array.unsafe_get a l)) done
    | Mand (Vm d, Vm a, Vm b) ->
        fun t ->
          let vm = t.vm in
          let d = vm.(d) and a = vm.(a) and b = vm.(b) in
          for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) && (Array.unsafe_get b l)) done
    | Mor (Vm d, Vm a, Vm b) ->
        fun t ->
          let vm = t.vm in
          let d = vm.(d) and a = vm.(a) and b = vm.(b) in
          for l = 0 to width - 1 do Array.unsafe_set d l ((Array.unsafe_get a l) || (Array.unsafe_get b l)) done
    (* lane loops, not [Array.exists]/[Array.for_all]: those allocate a
       closure per call *)
    | Many (Si d, Vm a) ->
        fun t ->
          let m = t.vm.(a) in
          let any = ref 0 in
          for l = 0 to width - 1 do
            if Array.unsafe_get m l then any := 1
          done;
          t.si.(d) <- !any
    | Mall (Si d, Vm a) ->
        fun t ->
          let m = t.vm.(a) in
          let all = ref 1 in
          for l = 0 to width - 1 do
            if not (Array.unsafe_get m l) then all := 0
          done;
          t.si.(d) <- !all
    | Mcount (Si d, Vm a) ->
        fun t ->
          let m = t.vm.(a) in
          let n = ref 0 in
          for l = 0 to width - 1 do
            if Array.unsafe_get m l then incr n
          done;
          t.si.(d) <- !n
    | Vloadf { dst = Vf dst; buf; idx = Si idx; mask = None } ->
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          emit_lanes_act t all_true;
          let base = t.si.(idx) in
          let d = t.vf.(dst) in
          if base >= 0 && base + width <= n then
            for l = 0 to width - 1 do
              Array.unsafe_set d l (Array.unsafe_get a (base + l))
            done
          else
            for l = 0 to width - 1 do
              d.(l) <- Memory.get_f mem buf (base + l)
            done;
          hook ~thread:t.thread ~addr:(abase + (4 * base)) ~bytes:(width * 4)
            ~write:false ~chain:false ~nt:false
    | Vloadf { dst = Vf dst; buf; idx = Si idx; mask } ->
        let get_act = act_get mask in
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          let d = t.vf.(dst) and act = get_act t in
          emit_lanes_act t act;
          let base = t.si.(idx) in
          let any = ref false in
          for l = 0 to width - 1 do
            if (Array.unsafe_get act l) then begin
              let i = base + l in
              if i >= 0 && i < n then Array.unsafe_set d l (Array.unsafe_get a i)
              else Array.unsafe_set d l (Memory.get_f mem buf i);
              any := true
            end
          done;
          if !any then
            hook ~thread:t.thread ~addr:(abase + (4 * base)) ~bytes:(width * 4)
              ~write:false ~chain:false ~nt:false
    | Vloadi { dst = Vi dst; buf; idx = Si idx; mask = None } ->
        let a, abase = ints buf in
        let n = Array.length a in
        fun t ->
          emit_lanes_act t all_true;
          let base = t.si.(idx) in
          let d = t.vi.(dst) in
          if base >= 0 && base + width <= n then
            for l = 0 to width - 1 do
              Array.unsafe_set d l (Array.unsafe_get a (base + l))
            done
          else
            for l = 0 to width - 1 do
              d.(l) <- Memory.get_i mem buf (base + l)
            done;
          hook ~thread:t.thread ~addr:(abase + (4 * base)) ~bytes:(width * 4)
            ~write:false ~chain:false ~nt:false
    | Vloadi { dst = Vi dst; buf; idx = Si idx; mask } ->
        let get_act = act_get mask in
        let a, abase = ints buf in
        let n = Array.length a in
        fun t ->
          let d = t.vi.(dst) and act = get_act t in
          emit_lanes_act t act;
          let base = t.si.(idx) in
          let any = ref false in
          for l = 0 to width - 1 do
            if (Array.unsafe_get act l) then begin
              let i = base + l in
              if i >= 0 && i < n then Array.unsafe_set d l (Array.unsafe_get a i)
              else Array.unsafe_set d l (Memory.get_i mem buf i);
              any := true
            end
          done;
          if !any then
            hook ~thread:t.thread ~addr:(abase + (4 * base)) ~bytes:(width * 4)
              ~write:false ~chain:false ~nt:false
    | Vloadf_strided { dst = Vf dst; buf; idx = Si idx; stride = Si stride } ->
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          let d = t.vf.(dst) in
          let base = t.si.(idx) and s = t.si.(stride) in
          for l = 0 to width - 1 do
            let i = base + (l * s) in
            if i >= 0 && i < n then Array.unsafe_set d l (Array.unsafe_get a i)
            else Array.unsafe_set d l (Memory.get_f mem buf i);
            hook ~thread:t.thread ~addr:(abase + (4 * i)) ~bytes:4 ~write:false
              ~chain:false ~nt:false
          done
    | Vgatherf { dst = Vf dst; buf; idx = Vi idx; mask; chain } ->
        let get_act = act_get mask in
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          let d = t.vf.(dst) and ix = t.vi.(idx) and act = get_act t in
          emit_lanes_act t act;
          for l = 0 to width - 1 do
            if (Array.unsafe_get act l) then begin
              let i = Array.unsafe_get ix l in
              if i >= 0 && i < n then Array.unsafe_set d l (Array.unsafe_get a i)
              else Array.unsafe_set d l (Memory.get_f mem buf i);
              hook ~thread:t.thread ~addr:(abase + (4 * i)) ~bytes:4
                ~write:false ~chain ~nt:false
            end
          done
    | Vgatheri { dst = Vi dst; buf; idx = Vi idx; mask; chain } ->
        let get_act = act_get mask in
        let a, abase = ints buf in
        let n = Array.length a in
        fun t ->
          let vi = t.vi in
          let d = vi.(dst) and ix = vi.(idx) and act = get_act t in
          emit_lanes_act t act;
          for l = 0 to width - 1 do
            if (Array.unsafe_get act l) then begin
              let i = Array.unsafe_get ix l in
              if i >= 0 && i < n then Array.unsafe_set d l (Array.unsafe_get a i)
              else Array.unsafe_set d l (Memory.get_i mem buf i);
              (* the address re-reads the index lane after the write, as
                 the tree walker does: with [dst = idx] it is the loaded
                 value *)
              hook ~thread:t.thread
                ~addr:(abase + (4 * Array.unsafe_get ix l))
                ~bytes:4 ~write:false ~chain ~nt:false
            end
          done
    | Vstoref { buf; idx = Si idx; src = Vf src; mask = None } ->
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          emit_lanes_act t all_true;
          let base = t.si.(idx) in
          let s = t.vf.(src) in
          if base >= 0 && base + width <= n then
            for l = 0 to width - 1 do
              Array.unsafe_set a (base + l) (Array.unsafe_get s l)
            done
          else
            for l = 0 to width - 1 do
              Memory.set_f mem buf (base + l) s.(l)
            done;
          hook ~thread:t.thread ~addr:(abase + (4 * base)) ~bytes:(width * 4)
            ~write:true ~chain:false ~nt:false
    | Vstoref { buf; idx = Si idx; src = Vf src; mask } ->
        let get_act = act_get mask in
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          let s = t.vf.(src) and act = get_act t in
          emit_lanes_act t act;
          let base = t.si.(idx) in
          let any = ref false in
          for l = 0 to width - 1 do
            if (Array.unsafe_get act l) then begin
              let i = base + l in
              if i >= 0 && i < n then Array.unsafe_set a i (Array.unsafe_get s l)
              else Memory.set_f mem buf i (Array.unsafe_get s l);
              any := true
            end
          done;
          if !any then
            hook ~thread:t.thread ~addr:(abase + (4 * base)) ~bytes:(width * 4)
              ~write:true ~chain:false ~nt:false
    | Vstorei { buf; idx = Si idx; src = Vi src; mask = None } ->
        let a, abase = ints buf in
        let n = Array.length a in
        fun t ->
          emit_lanes_act t all_true;
          let base = t.si.(idx) in
          let s = t.vi.(src) in
          if base >= 0 && base + width <= n then
            for l = 0 to width - 1 do
              Array.unsafe_set a (base + l) (Array.unsafe_get s l)
            done
          else
            for l = 0 to width - 1 do
              Memory.set_i mem buf (base + l) s.(l)
            done;
          hook ~thread:t.thread ~addr:(abase + (4 * base)) ~bytes:(width * 4)
            ~write:true ~chain:false ~nt:false
    | Vstorei { buf; idx = Si idx; src = Vi src; mask } ->
        let get_act = act_get mask in
        let a, abase = ints buf in
        let n = Array.length a in
        fun t ->
          let s = t.vi.(src) and act = get_act t in
          emit_lanes_act t act;
          let base = t.si.(idx) in
          let any = ref false in
          for l = 0 to width - 1 do
            if (Array.unsafe_get act l) then begin
              let i = base + l in
              if i >= 0 && i < n then Array.unsafe_set a i (Array.unsafe_get s l)
              else Memory.set_i mem buf i (Array.unsafe_get s l);
              any := true
            end
          done;
          if !any then
            hook ~thread:t.thread ~addr:(abase + (4 * base)) ~bytes:(width * 4)
              ~write:true ~chain:false ~nt:false
    | Vstoref_nt { buf; idx = Si idx; src = Vf src } ->
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          let base = t.si.(idx) in
          let s = t.vf.(src) in
          if base >= 0 && base + width <= n then
            for l = 0 to width - 1 do
              Array.unsafe_set a (base + l) (Array.unsafe_get s l)
            done
          else
            for l = 0 to width - 1 do
              Memory.set_f mem buf (base + l) s.(l)
            done;
          hook ~thread:t.thread ~addr:(abase + (4 * base)) ~bytes:(width * 4)
            ~write:true ~chain:false ~nt:true
    | Vstoref_strided { buf; idx = Si idx; stride = Si stride; src = Vf src }
      ->
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          let s = t.vf.(src) in
          let base = t.si.(idx) and st = t.si.(stride) in
          for l = 0 to width - 1 do
            let i = base + (l * st) in
            if i >= 0 && i < n then Array.unsafe_set a i (Array.unsafe_get s l)
            else Memory.set_f mem buf i (Array.unsafe_get s l);
            hook ~thread:t.thread ~addr:(abase + (4 * i)) ~bytes:4 ~write:true
              ~chain:false ~nt:false
          done
    | Vscatterf { buf; idx = Vi idx; src = Vf src; mask } ->
        let get_act = act_get mask in
        let a, abase = floats buf in
        let n = Array.length a in
        fun t ->
          let ix = t.vi.(idx) and s = t.vf.(src) and act = get_act t in
          emit_lanes_act t act;
          for l = 0 to width - 1 do
            if (Array.unsafe_get act l) then begin
              let i = Array.unsafe_get ix l in
              if i >= 0 && i < n then Array.unsafe_set a i (Array.unsafe_get s l)
              else Memory.set_f mem buf i (Array.unsafe_get s l);
              hook ~thread:t.thread ~addr:(abase + (4 * i)) ~bytes:4
                ~write:true ~chain:false ~nt:false
            end
          done
    | Vscatteri { buf; idx = Vi idx; src = Vi src; mask } ->
        let get_act = act_get mask in
        let a, abase = ints buf in
        let n = Array.length a in
        fun t ->
          let vi = t.vi in
          let ix = vi.(idx) and s = vi.(src) and act = get_act t in
          emit_lanes_act t act;
          for l = 0 to width - 1 do
            if (Array.unsafe_get act l) then begin
              let i = Array.unsafe_get ix l in
              if i >= 0 && i < n then Array.unsafe_set a i (Array.unsafe_get s l)
              else Memory.set_i mem buf i (Array.unsafe_get s l);
              hook ~thread:t.thread ~addr:(abase + (4 * i)) ~bytes:4
                ~write:true ~chain:false ~nt:false
            end
          done
  in
  (* Op class, count-row index, action and segment-barrier flag of one
     straight-line op. Denter/Dexit are handled by the block builders
     (they cost nothing and only matter when traced). *)
  let sop_of (op : Decode.dop) =
    match op with
    | Decode.Dinstr { i; cls; cls_idx } ->
        (cls, cls_idx, action_of_instr i, instr_barrier i)
    | Decode.Dfor _ | Decode.Dforback _ | Decode.Dwhile _ | Decode.Dif _
    | Decode.Djmp _ | Decode.Denter _ | Decode.Dexit _ ->
        assert false
  in
  let charge n =
    instructions := !instructions + n;
    fuel := !fuel - n;
    if !fuel < 0 then Memory.trap "fuel exhausted in %s" prog_name
  in
  let len = Array.length code in
  (* Node table: nodes.(i) runs the program from op i to the end of the
     phase. Closures reference successors through this table, so forward
     targets resolve and every transfer is a tail call. *)
  let nodes = Array.make (len + 1) (fun (_ : tctx) -> ()) in
  let goto k (t : tctx) = (Array.unsafe_get nodes k) t in
  (* Basic-block leaders: every jump target and every op following a
     control op starts a block. *)
  let leader = Array.make (len + 1) false in
  if len > 0 then leader.(0) <- true;
  Array.iteri
    (fun i op ->
      match (op : Decode.dop) with
      | Dfor { exit; _ } ->
          leader.(exit) <- true;
          leader.(i + 1) <- true
      | Dforback { body; _ } ->
          leader.(body) <- true;
          leader.(i + 1) <- true
      | Dwhile { exit; _ } ->
          leader.(exit) <- true;
          leader.(i + 1) <- true
      | Dif { else_; _ } ->
          leader.(else_) <- true;
          leader.(i + 1) <- true
      | Djmp t ->
          leader.(t) <- true;
          if i + 1 <= len then leader.(i + 1) <- true
      | _ -> ())
    code;
  let is_straight i =
    match code.(i) with
    | Decode.Dfor _ | Decode.Dforback _ | Decode.Dwhile _ | Decode.Dif _
    | Decode.Djmp _ -> false
    | _ -> true
  in
  (* Split a straight-line range into bookkeeping segments: (costs keyed
     by row index, total, actions), in program order. Segments break
     after barrier ops (see [instr_barrier]). *)
  let segments lo hi =
    let segs = ref [] in
    let costs = Hashtbl.create 8 in
    let total = ref 0 in
    let acts = ref [] in
    let close () =
      if !acts <> [] then begin
        let cost_arr =
          Hashtbl.fold (fun c n l -> (c, n) :: l) costs []
          |> List.sort compare |> Array.of_list
        in
        segs := (cost_arr, !total, Array.of_list (List.rev !acts)) :: !segs;
        Hashtbl.reset costs;
        total := 0;
        acts := []
      end
    in
    for i = lo to hi - 1 do
      match code.(i) with
      | Decode.Denter _ | Decode.Dexit _ -> ()
      | op ->
          let _, ci, action, barrier = sop_of op in
          Hashtbl.replace costs ci
            (1 + Option.value (Hashtbl.find_opt costs ci) ~default:0);
          incr total;
          acts := action :: !acts;
          if barrier then close ()
    done;
    close ();
    (* in reverse program order, ready for continuation-folding *)
    !segs
  in
  (* One segment fused with its continuation into a single closure: row
     and fuel updates are inlined next to the action calls, so a segment
     costs one indirect call, not a book-closure call plus dispatch. *)
  let chain_seg (cost_arr, tot, actions) (next : tctx -> unit) : tctx -> unit
      =
    match (cost_arr, actions) with
    | [| (c, n) |], [| a |] ->
        fun t ->
          let row = t.row in
          row.(c) <- row.(c) + n;
          charge tot;
          a t;
          next t
    | [| (c, n) |], [| a; b |] ->
        fun t ->
          let row = t.row in
          row.(c) <- row.(c) + n;
          charge tot;
          a t;
          b t;
          next t
    | [| (c, n) |], _ ->
        fun t ->
          let row = t.row in
          row.(c) <- row.(c) + n;
          charge tot;
          for i = 0 to Array.length actions - 1 do
            (Array.unsafe_get actions i) t
          done;
          next t
    | [| (c1, n1); (c2, n2) |], [| a |] ->
        fun t ->
          let row = t.row in
          row.(c1) <- row.(c1) + n1;
          row.(c2) <- row.(c2) + n2;
          charge tot;
          a t;
          next t
    | [| (c1, n1); (c2, n2) |], [| a; b |] ->
        fun t ->
          let row = t.row in
          row.(c1) <- row.(c1) + n1;
          row.(c2) <- row.(c2) + n2;
          charge tot;
          a t;
          b t;
          next t
    | _ ->
        fun t ->
          let row = t.row in
          for k = 0 to Array.length cost_arr - 1 do
            let c, n = Array.unsafe_get cost_arr k in
            row.(c) <- row.(c) + n
          done;
          charge tot;
          for i = 0 to Array.length actions - 1 do
            (Array.unsafe_get actions i) t
          done;
          next t
  in
  (* Untraced block compiler: hoist bookkeeping into per-segment batches,
     then thread the fused segment closures directly. *)
  let compile_block_untraced lo hi =
    List.fold_left
      (fun next seg -> chain_seg seg next)
      (goto hi) (segments lo hi)
  in
  (* Fused innermost loop (untraced only): when a [Dforback]'s body is
     exactly one straight-line block, the whole loop becomes a single
     closure around an OCaml while loop — the back edge is an inline
     compare + inline Salu/Branch bookkeeping instead of two node-table
     transfers and a branch closure per iteration. Iteration order,
     bookkeeping order and trap points are identical to the threaded
     form (the edge is booked after the induction update, exactly as
     [compile_control]'s [Dforback] arm does). *)
  (* A segment with no continuation (a loop body's last segment). *)
  let last_seg (cost_arr, tot, actions) : tctx -> unit =
    match (cost_arr, actions) with
    | [| (c, n) |], [| a |] ->
        fun t ->
          let row = t.row in
          row.(c) <- row.(c) + n;
          charge tot;
          a t
    | [| (c, n) |], [| a; b |] ->
        fun t ->
          let row = t.row in
          row.(c) <- row.(c) + n;
          charge tot;
          a t;
          b t
    | [| (c, n) |], _ ->
        fun t ->
          let row = t.row in
          row.(c) <- row.(c) + n;
          charge tot;
          for i = 0 to Array.length actions - 1 do
            (Array.unsafe_get actions i) t
          done
    | [| (c1, n1); (c2, n2) |], [| a |] ->
        fun t ->
          let row = t.row in
          row.(c1) <- row.(c1) + n1;
          row.(c2) <- row.(c2) + n2;
          charge tot;
          a t
    | _ ->
        fun t ->
          let row = t.row in
          for k = 0 to Array.length cost_arr - 1 do
            let c, n = Array.unsafe_get cost_arr k in
            row.(c) <- row.(c) + n
          done;
          charge tot;
          for i = 0 to Array.length actions - 1 do
            (Array.unsafe_get actions i) t
          done
  in
  let compile_fused_loop ~lo ~fb ~idx ~id =
    let exit_k = goto (fb + 1) in
    (* taken back edge: induction update + fused Salu/Branch bookkeeping,
       exactly as [compile_control]'s untraced [Dforback] arm. The bound
       and step are loop-invariant (the body is straight-line, and only
       [Dfor]/[Dforback] for this [id] write them), so they are read once
       per loop entry; [for_cur] is still written through each edge so
       any direct jump to the [Dforback] node sees current state. *)
    let edge ~step_v ~hi_v (t : tctx) =
      let iv = for_cur.(id) + step_v in
      if iv < hi_v then begin
        for_cur.(id) <- iv;
        t.si.(idx) <- iv;
        let row = t.row in
        row.(salu_idx) <- row.(salu_idx) + 1;
        row.(branch_idx) <- row.(branch_idx) + 1;
        charge 2;
        true
      end
      else false
    in
    (* [segments] returns reverse program order: head = last segment *)
    match segments lo fb with
    | [ ([| (c, n) |], tot, [| a |]) ] ->
        (* commonest tight loop: one segment, one action — everything but
           the action call is inline in the while loop *)
        fun (t : tctx) ->
          let step_v = for_step.(id) and hi_v = for_hi.(id) in
          let row = t.row in
          let continue_ = ref true in
          while !continue_ do
            row.(c) <- row.(c) + n;
            charge tot;
            a t;
            continue_ := edge ~step_v ~hi_v t
          done;
          exit_k t
    | [ ([| (c, n) |], tot, [| a; b |]) ] ->
        fun (t : tctx) ->
          let step_v = for_step.(id) and hi_v = for_hi.(id) in
          let row = t.row in
          let continue_ = ref true in
          while !continue_ do
            row.(c) <- row.(c) + n;
            charge tot;
            a t;
            b t;
            continue_ := edge ~step_v ~hi_v t
          done;
          exit_k t
    | [ seg ] ->
        let s = last_seg seg in
        fun (t : tctx) ->
          let step_v = for_step.(id) and hi_v = for_hi.(id) in
          let continue_ = ref true in
          while !continue_ do
            s t;
            continue_ := edge ~step_v ~hi_v t
          done;
          exit_k t
    | [] ->
        fun (t : tctx) ->
          let step_v = for_step.(id) and hi_v = for_hi.(id) in
          let continue_ = ref true in
          while !continue_ do
            continue_ := edge ~step_v ~hi_v t
          done;
          exit_k t
    | last :: rest ->
        let body =
          List.fold_left (fun next seg -> chain_seg seg next) (last_seg last)
            rest
        in
        fun (t : tctx) ->
          let step_v = for_step.(id) and hi_v = for_hi.(id) in
          let continue_ = ref true in
          while !continue_ do
            body t;
            continue_ := edge ~step_v ~hi_v t
          done;
          exit_k t
  in
  (* Traced block compiler: one closure per op, bookkeeping and Trace.Op
     emission in exact per-op order (the tree walker's traced contract). *)
  let compile_block_traced f lo hi =
    let node = ref (goto hi) in
    for i = hi - 1 downto lo do
      let next = !node in
      node :=
        (match code.(i) with
        | Decode.Denter scope ->
            fun t ->
              f (Trace.Enter { thread = t.thread; scope });
              next t
        | Decode.Dexit scope ->
            fun t ->
              f (Trace.Exit { thread = t.thread; scope });
              next t
        | op ->
            let cls, ci, act, _ = sop_of op in
            fun t ->
              let row = t.row in
              row.(ci) <- row.(ci) + 1;
              charge 1;
              f (Trace.Op { thread = t.thread; cls });
              act t;
              next t)
    done;
    !node
  in
  let compile_block lo hi =
    match trace with
    | None -> compile_block_untraced lo hi
    | Some f -> compile_block_traced f lo hi
  in
  (* Control ops compile to branch closures with the tree walker's
     bookkeeping: Salu+Branch on taken loop edges, fused into one step
     when untraced (the fuel waiver in the header) and per-op when
     traced. *)
  let book_loop_edge =
    match trace with
    | None ->
        fun (t : tctx) ->
          let row = t.row in
          row.(salu_idx) <- row.(salu_idx) + 1;
          row.(branch_idx) <- row.(branch_idx) + 1;
          charge 2
    | Some f ->
        fun (t : tctx) ->
          let row = t.row in
          row.(salu_idx) <- row.(salu_idx) + 1;
          charge 1;
          f (Trace.Op { thread = t.thread; cls = Isa.Salu });
          row.(branch_idx) <- row.(branch_idx) + 1;
          charge 1;
          f (Trace.Op { thread = t.thread; cls = Isa.Branch })
  in
  let book_branch =
    match trace with
    | None ->
        fun (t : tctx) ->
          let row = t.row in
          row.(branch_idx) <- row.(branch_idx) + 1;
          charge 1
    | Some f ->
        fun (t : tctx) ->
          let row = t.row in
          row.(branch_idx) <- row.(branch_idx) + 1;
          charge 1;
          f (Trace.Op { thread = t.thread; cls = Isa.Branch })
  in
  let compile_control i (op : Decode.dop) =
    match op with
    | Dfor { idx; lo; hi; step; id; exit } ->
        let body = goto (i + 1) and exit_k = goto exit in
        fun (t : tctx) ->
          let si = t.si in
          let lo_v = si.(lo) and hi_v = si.(hi) and step_v = si.(step) in
          if step_v <= 0 then
            Memory.trap "for loop with non-positive step %d" step_v;
          if lo_v < hi_v then begin
            for_cur.(id) <- lo_v;
            for_hi.(id) <- hi_v;
            for_step.(id) <- step_v;
            si.(idx) <- lo_v;
            book_loop_edge t;
            body t
          end
          else exit_k t
    | Dforback { idx; id; body } ->
        let body_k = goto body and exit_k = goto (i + 1) in
        fun (t : tctx) ->
          let iv = for_cur.(id) + for_step.(id) in
          if iv < for_hi.(id) then begin
            for_cur.(id) <- iv;
            t.si.(idx) <- iv;
            book_loop_edge t;
            body_k t
          end
          else exit_k t
    | Dwhile { cond; exit } ->
        let then_k = goto (i + 1) and exit_k = goto exit in
        fun (t : tctx) ->
          book_branch t;
          if t.si.(cond) <> 0 then then_k t else exit_k t
    | Dif { cond; else_ } ->
        let then_k = goto (i + 1) and else_k = goto else_ in
        fun (t : tctx) ->
          book_branch t;
          if t.si.(cond) <> 0 then then_k t else else_k t
    | Djmp target -> goto target
    | _ -> assert false
  in
  (* Fill the node table: fused block closures at straight-line leaders,
     branch closures at every control op. *)
  let i = ref 0 in
  while !i < len do
    if not (is_straight !i) then begin
      nodes.(!i) <- compile_control !i code.(!i);
      incr i
    end
    else begin
      let lo = !i in
      let j = ref (lo + 1) in
      while !j < len && is_straight !j && not leader.(!j) do
        incr j
      done;
      let block =
        match (trace, if !j < len then Some code.(!j) else None) with
        | None, Some (Decode.Dforback { idx; id; body }) when body = lo ->
            (* single-block innermost loop: body runs as a while loop *)
            compile_fused_loop ~lo ~fb:!j ~idx ~id
        | _ -> compile_block lo !j
      in
      nodes.(lo) <- block;
      (* interior straight-line ops are unreachable (not leaders), so
         their node slots stay as halts *)
      i := !j
    end
  done;
  if len = 0 then fun _ -> () else nodes.(0)
