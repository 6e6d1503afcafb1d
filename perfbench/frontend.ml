(* The language front end, timed over every Cee source variant of every
   benchmark (b_sources): parse, type check, dependence analysis, and
   code generation at the three compiler settings of the ladder. A
   setting the compiler rejects for a source (Compile_error) is an
   expected outcome, not a failure. *)

open Bench_util
module Lang = Ninja_lang

let census () =
  let parse = ref 0. and check = ref 0. and deps = ref 0. and codegen = ref 0. in
  let kernels = ref 0 in
  let sp name acc f =
    let v, dt = timed (fun () -> Span.with_span ~layer:"lang" name f) in
    acc := !acc +. dt;
    v
  in
  Span.with_span ~layer:"lang" "front-end census" (fun () ->
      List.iter
        (fun (b : Ninja_kernels.Driver.benchmark) ->
          List.iter
            (fun (vname, src) ->
              incr kernels;
              Span.with_span ~group:!kernels ~layer:"lang" (b.b_name ^ "/" ^ vname) (fun () ->
                  let ast = sp "Parser.parse_kernel" parse (fun () -> Lang.Parser.parse_kernel src) in
                  sp "Check.check_kernel" check (fun () -> Lang.Check.check_kernel ast);
                  ignore (sp "Deps.analyze" deps (fun () -> Lang.Deps.analyze ast) : Lang.Deps.t);
                  List.iter
                    (fun flags ->
                      try ignore (sp "Codegen.compile" codegen (fun () -> Lang.Codegen.compile ~flags ast))
                      with Lang.Codegen.Compile_error _ -> ())
                    Lang.Codegen.[ o2; o2_vec; o2_vec_par ]))
            b.b_sources)
        Ninja_kernels.Registry.all);
  [
    ("lang.parse_s", !parse, "s");
    ("lang.check_s", !check, "s");
    ("lang.deps_s", !deps, "s");
    ("lang.codegen_s", !codegen, "s");
    ("lang.kernels", float_of_int !kernels, "count");
  ]
