(* Differential pinning for the closure-compiling backend (lib/vm/compile.ml).

   The compiler's contract is total observational equivalence with the
   tree walker, the executable spec: for any verifier-clean program,
   [Compiled] must agree with [Tree] on every observable — final register
   files, memory contents, per-thread count rows, total instructions,
   the memory-access event stream, the profiling trace, and trap
   messages (including the memory state at the fault, which pins the
   batched-bookkeeping fuel semantics). This suite pins that contract
   with a random-program differential (traced and untraced),
   deterministic trap differentials, and hand-seeded mutations of
   decoded op arrays — each simulating a distinct compiler-bug class
   (wrong constant, dropped def, swapped operands, wrong operator,
   flipped dependence chain, dropped store, wrong loop bound, perturbed
   float constant, dropped trace scope, misattributed count class) —
   that the observation differential must refute when executed through
   the compiled executor. *)

open Ninja_vm
module F = Test_fastpath

(* ------------------------------------------------------------------ *)
(* Random-program differential: Tree vs Compiled.                      *)

let prop_tree_vs_compiled =
  QCheck.Test.make ~count:500
    ~name:"random programs: Tree and Compiled agree on all observables"
    F.seed_arb (fun seed ->
      let prog, n_threads, width = F.build_program seed in
      let issues =
        Verify.verify ~width ~n_threads
          ~lengths:[ ("data", F.data_len); ("idxs", F.data_len) ]
          prog
      in
      if issues <> [] then
        QCheck.Test.fail_reportf
          "generator produced a non-verifier-clean program:@ %a"
          Fmt.(list ~sep:semi Verify.pp_issue)
          issues;
      List.for_all
        (fun tracing ->
          let t = F.observe ~strategy:Interp.Tree ~tracing ~n_threads ~width prog in
          let c =
            F.observe ~strategy:Interp.Compiled ~tracing ~n_threads ~width prog
          in
          match F.diff_observations t c with
          | None -> true
          | Some what ->
              QCheck.Test.fail_reportf
                "Tree vs Compiled diverge (tracing=%b) on: %s" tracing what)
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* Deterministic trap differentials (not verifier-clean on purpose: they
   fault, and both strategies must fault identically) — same message,
   same memory state at the fault. The fuel cases are the sharp ones:
   the compiled backend batches instruction/fuel bookkeeping per
   straight-line segment, and these pin that a batch never moves a trap
   across an observable effect. *)

let trap_pair ?(width = 4) ?(fuel = 1_000) build args =
  let obs strategy =
    let b = Builder.create ~name:"trap" in
    build b;
    let prog = Builder.finish b in
    let mem = Memory.create prog (args ()) in
    let r =
      match Interp.run ~width ~fuel ~strategy prog mem with
      | (_ : Interp.result) -> Error "no trap"
      | exception Interp.Trap m -> Ok m
    in
    let snapshot =
      List.map (fun (name, _) ->
          match Memory.find mem name with
          | _, Memory.Fbuf a -> (name, `F (Array.copy a))
          | _, Memory.Ibuf a -> (name, `I (Array.copy a)))
        (args ())
    in
    (r, snapshot)
  in
  let t = obs Interp.Tree and c = obs Interp.Compiled in
  Alcotest.(check bool) "Tree and Compiled trap identically" true
    (compare t c = 0);
  match fst t with
  | Ok msg -> msg
  | Error e -> Alcotest.fail ("expected a trap, got: " ^ e)

let test_trap_fuel_exhausted () =
  let msg =
    trap_pair ~fuel:500
      (fun b ->
        Builder.seq_phase b (fun () ->
            let one = Builder.iconst b 1 in
            Builder.while_ b
              ~cond:(fun () -> one)
              (fun () -> ignore (Builder.iconst b 0 : Isa.si_reg))))
      (fun () -> [])
  in
  Alcotest.(check bool) "fuel in message" true
    (Astring_contains.contains msg "fuel")

let test_trap_fuel_before_store () =
  (* fuel runs out mid-segment, after pure ops but before a store: the
     batched charge must trap without executing the store *)
  let msg =
    trap_pair ~fuel:6
      (fun b ->
        let buf = Builder.buffer_f b "buf" in
        Builder.seq_phase b (fun () ->
            let x = Builder.fconst b 1. in
            let y = Builder.fconst b 2. in
            let z = Builder.sf b in
            Builder.emit b (Fbin (Fadd, z, x, y));
            Builder.emit b (Fbin (Fmul, z, z, z));
            let i = Builder.iconst b 0 in
            Builder.emit b (Storef { buf; idx = i; src = z });
            Builder.emit b (Storef { buf; idx = i; src = z })))
      (fun () -> [ ("buf", Memory.Fbuf (Array.make 4 0.)) ])
  in
  Alcotest.(check bool) "fuel in message" true
    (Astring_contains.contains msg "fuel")

let test_trap_div_by_zero () =
  let msg =
    trap_pair
      (fun b ->
        Builder.seq_phase b (fun () ->
            let z = Builder.iconst b 0 in
            let x = Builder.iconst b 7 in
            ignore (Builder.ibin b Idiv x z : Isa.si_reg)))
      (fun () -> [])
  in
  Alcotest.(check bool) "division in message" true
    (Astring_contains.contains msg "division by zero")

let test_trap_oob_vector_store () =
  let msg =
    trap_pair
      (fun b ->
        let buf = Builder.buffer_f b "buf" in
        Builder.seq_phase b (fun () ->
            let sf = Builder.fconst b 9. in
            let v = Builder.vf b in
            Builder.emit b (Vbroadcastf (v, sf));
            let base = Builder.iconst b 6 in
            Builder.emit b (Vstoref { buf; idx = base; src = v; mask = None })))
      (fun () -> [ ("buf", Memory.Fbuf (Array.make 8 0.)) ])
  in
  Alcotest.(check bool) "oob in message" true
    (Astring_contains.contains msg "out-of-bounds")

let test_trap_nonpositive_step () =
  let msg =
    trap_pair
      (fun b ->
        Builder.seq_phase b (fun () ->
            let lo = Builder.iconst b 0 in
            let hi = Builder.iconst b 4 in
            let step = Builder.iconst b 0 in
            Builder.for_ b ~lo ~hi ~step (fun _ -> ())))
      (fun () -> [])
  in
  Alcotest.(check bool) "step in message" true
    (Astring_contains.contains msg "step")

(* ------------------------------------------------------------------ *)
(* Hand-seeded compiler mutations: execute deliberately broken decoded
   arrays through the compiled executor via [Interp.run ~decoded] and
   assert the observation differential refutes each one against the
   tree walker. Each mutation stands in for a distinct class of compiler
   bug; a compiled executor with any of them could not pass this suite.
   A fall-through [Djmp] to the next op deletes an op in place without
   shifting any jump target. *)

(* Rewrite the first op [f] matches; [f] also gets the op's index. *)
let mutate (d : Decode.t) f =
  let found = ref false in
  let phases =
    Array.map
      (fun (ph : Decode.phase) ->
        { ph with
          Decode.code =
            Array.mapi
              (fun i op ->
                if !found then op
                else
                  match f i op with
                  | Some op' ->
                      found := true;
                      op'
                  | None -> op)
              ph.Decode.code })
      d.Decode.phases
  in
  if not !found then Alcotest.fail "mutation site not found in op array";
  { d with Decode.phases }

(* One program with a site for every mutation class: a constant operand,
   a runtime Isub and Iadd, a def overwritten before its only use, a
   chained Loadf, scalar stores to both buffers, a counted For loop, a
   runtime If, and a profiled region. *)
let mutation_program () =
  let b = Builder.create ~name:"compile-mutation" in
  let data = Builder.buffer_f b "data" in
  let idxs = Builder.buffer_i b "idxs" in
  Builder.seq_phase b (fun () ->
      let x = Builder.si b in
      Builder.emit b (Imov (x, Isa.thread_id_reg));
      let three = Builder.iconst b 3 in
      let z = Builder.ibin b Iadd x three in
      let w = Builder.ibin b Isub z x in
      let zero = Builder.iconst b 0 in
      let one = Builder.iconst b 1 in
      Builder.emit b (Storei { buf = idxs; idx = zero; src = w });
      (* a def overwritten before its only store *)
      let r = Builder.si b in
      Builder.emit b (Iconst (r, 5));
      Builder.emit b (Iconst (r, 6));
      Builder.emit b (Storei { buf = idxs; idx = one; src = r });
      let f = Builder.sf b in
      Builder.emit b (Loadf { dst = f; buf = data; idx = one; chain = true });
      let g = Builder.fconst b 2.5 in
      let h = Builder.sf b in
      Builder.emit b (Fbin (Fmul, h, f, g));
      Builder.emit b (Storef { buf = data; idx = zero; src = h });
      let lo = Builder.iconst b 0 in
      let hi = Builder.iconst b 4 in
      let step = Builder.iconst b 1 in
      Builder.for_ b ~lo ~hi ~step (fun i ->
          let acc = Builder.ibin b Iadd i w in
          Builder.emit b (Storei { buf = idxs; idx = one; src = acc }));
      Builder.if_ b ~cond:x
        ~else_:(fun () -> Builder.emit b (Fconst (h, 0.25)))
        (fun () -> Builder.emit b (Fconst (h, 0.75)));
      Builder.region b "mutation-region" (fun () ->
          Builder.emit b (Storef { buf = data; idx = one; src = h })));
  Builder.finish b

(* Refute one mutation: the mutated arrays, executed through the
   compiled backend, must diverge from the tree walker's run. Trace-only
   mutations (dropped scopes) only show under tracing, so each case
   declares the tracing modes that must catch it. *)
let assert_refuted ?(tracing_modes = [ false; true ]) ~what prog mutated =
  List.iter
    (fun tracing ->
      let good =
        F.observe ~strategy:Interp.Tree ~tracing ~n_threads:1 ~width:4 prog
      in
      let bad =
        F.observe ~strategy:Interp.Compiled ~tracing ~decoded:mutated
          ~n_threads:1 ~width:4 prog
      in
      match F.diff_observations good bad with
      | Some _ -> ()
      | None ->
          Alcotest.fail
            (Fmt.str "compiled differential failed to refute %s (tracing=%b)"
               what tracing))
    tracing_modes

let test_compiled_clean_arrays_agree () =
  (* sanity for the harness itself: the *unmutated* decoded arrays,
     supplied through [~decoded], match the tree walker *)
  let prog = mutation_program () in
  let decoded = Decode.decode prog in
  List.iter
    (fun tracing ->
      let good =
        F.observe ~strategy:Interp.Tree ~tracing ~n_threads:1 ~width:4 prog
      in
      let compiled =
        F.observe ~strategy:Interp.Compiled ~tracing ~decoded ~n_threads:1
          ~width:4 prog
      in
      match F.diff_observations good compiled with
      | None -> ()
      | Some what ->
          Alcotest.fail
            (Fmt.str "clean compiled arrays diverge (tracing=%b) on: %s" tracing
               what))
    [ false; true ]

let mutation_case ?tracing_modes ~what f =
  Alcotest.test_case ("mutation: " ^ what ^ " is refuted") `Quick (fun () ->
      let prog = mutation_program () in
      assert_refuted ?tracing_modes ~what prog
        (mutate (Decode.decode prog) f))

let mutations =
  [
    mutation_case ~what:"an off-by-one immediate" (fun _ -> function
      | Decode.Dinstr { i = Isa.Iconst (d, 3); cls; cls_idx } ->
          Some (Decode.Dinstr { i = Isa.Iconst (d, 4); cls; cls_idx })
      | _ -> None);
    mutation_case ~what:"a dropped live def" (fun i -> function
      | Decode.Dinstr { i = Isa.Iconst (_, 6); _ } -> Some (Decode.Djmp (i + 1))
      | _ -> None);
    mutation_case ~what:"swapped subtraction operands" (fun _ -> function
      | Decode.Dinstr { i = Isa.Ibin (Isa.Isub, d, a, b); cls; cls_idx } ->
          Some (Decode.Dinstr { i = Isa.Ibin (Isa.Isub, d, b, a); cls; cls_idx })
      | _ -> None);
    mutation_case ~what:"a wrong operator selection" (fun _ -> function
      | Decode.Dinstr { i = Isa.Ibin (Isa.Iadd, d, a, b); cls; cls_idx } ->
          Some (Decode.Dinstr { i = Isa.Ibin (Isa.Isub, d, a, b); cls; cls_idx })
      | _ -> None);
    mutation_case ~what:"a flipped dependence-chain flag" (fun _ -> function
      | Decode.Dinstr { i = Isa.Loadf l; cls; cls_idx } ->
          Some
            (Decode.Dinstr
               { i = Isa.Loadf { l with chain = not l.chain }; cls; cls_idx })
      | _ -> None);
    mutation_case ~what:"a dropped store" (fun i -> function
      | Decode.Dinstr { i = Isa.Storef _; _ } -> Some (Decode.Djmp (i + 1))
      | _ -> None);
    mutation_case ~what:"a wrong loop bound" (fun _ -> function
      | Decode.Dfor d when d.hi <> d.lo -> Some (Decode.Dfor { d with hi = d.lo })
      | _ -> None);
    mutation_case ~what:"a perturbed float constant" (fun _ -> function
      | Decode.Dinstr { i = Isa.Fconst (d, 2.5); cls; cls_idx } ->
          Some (Decode.Dinstr { i = Isa.Fconst (d, 2.75); cls; cls_idx })
      | _ -> None);
    (* scopes are trace-only observables *)
    mutation_case ~tracing_modes:[ true ] ~what:"a dropped profiling scope"
      (fun i -> function Decode.Denter _ -> Some (Decode.Djmp (i + 1)) | _ -> None);
    mutation_case ~what:"a misattributed count class" (fun _ -> function
      | Decode.Dinstr { i = Isa.Ibin (Isa.Iadd, _, _, _) as i; _ } ->
          Some
            (Decode.Dinstr
               { i; cls = Isa.Sfp; cls_idx = Isa.op_class_index Isa.Sfp })
      | _ -> None);
  ]

let suite =
  ( "compile",
    List.concat
      [
        [
          QCheck_alcotest.to_alcotest prop_tree_vs_compiled;
          Alcotest.test_case "trap: fuel exhaustion" `Quick test_trap_fuel_exhausted;
          Alcotest.test_case "trap: fuel runs out before a store" `Quick
            test_trap_fuel_before_store;
          Alcotest.test_case "trap: integer division by zero" `Quick
            test_trap_div_by_zero;
          Alcotest.test_case "trap: partial oob vector store" `Quick
            test_trap_oob_vector_store;
          Alcotest.test_case "trap: non-positive loop step" `Quick
            test_trap_nonpositive_step;
          Alcotest.test_case "clean compiled arrays match the reference" `Quick
            test_compiled_clean_arrays_agree;
        ];
        mutations;
      ] )
