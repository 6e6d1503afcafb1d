(* Tests for ninja_workloads: the float sort behind every sorted dataset,
   and a pin on TreeSearch's tree so its data cannot drift silently. *)

module Gen = Ninja_workloads.Gen

(* Inputs of 0..2000 elements in the shapes that break quicksorts: random
   (with negatives), heavy duplicates, already sorted, reverse sorted,
   all equal, organ pipe — plus the values Float.compare treats
   specially (NaN, -0. next to 0., infinities). *)
let gen_input =
  let open QCheck.Gen in
  let* n = int_range 0 2000 in
  let random = array_repeat n (float_range (-1e6) 1e6) in
  let sorted dir =
    map
      (fun a ->
        Array.sort (fun x y -> dir * Float.compare x y) a;
        a)
      random
  in
  oneof
    [
      random;
      array_repeat n (map float_of_int (int_range (-5) 5));
      sorted 1;
      sorted (-1);
      map (Array.make n) (float_range (-10.) 10.);
      return (Array.init n (fun i -> float_of_int (min i (n - i))));
      array_repeat n
        (oneofl [ nan; -0.; 0.; infinity; neg_infinity; 1.; -1.; Float.min_float ]);
    ]

let prop_sort_matches_stdlib =
  QCheck.Test.make ~name:"sort_floats = Array.sort Float.compare" ~count:500
    (QCheck.make ~print:QCheck.Print.(array float) gen_input)
    (fun input ->
      let got = Array.copy input and want = Array.copy input in
      Gen.sort_floats got;
      Array.sort Float.compare want;
      Array.for_all2 (fun x y -> Float.compare x y = 0) got want)

(* Deterministic on any host: boxing a single float per comparison would
   cost millions of words here, so this catches a polymorphic compare
   creeping back in without timing anything. *)
let test_sort_allocates_nothing () =
  let a = Gen.floats ~seed:5 ~lo:(-1.) ~hi:1. 1_000_000 in
  let w0 = Gc.minor_words () in
  Gen.sort_floats a;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Fmt.str "sorting 1M floats allocated %.0f minor words (< 1000)" words)
    true (words < 1000.);
  Alcotest.(check bool) "and sorted them" true
    (Array.for_all2 ( <= ) (Array.sub a 0 999_999) (Array.sub a 1 999_999))

(* TreeSearch's default-scale tree, pinned by the MD5 of its float bits
   (little-endian IEEE 754). Recorded from the polymorphic-sort
   implementation, so any sort that is correct reproduces it. *)
let test_bst_pinned () =
  let t = Gen.bst_level_order ~seed:71 ~depth:23 in
  let b = Bytes.create (8 * Array.length t) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) t;
  Alcotest.(check int) "2^23 - 1 keys" ((1 lsl 23) - 1) (Array.length t);
  Alcotest.(check string) "float bits MD5" "d0405e98455e142d57b7e20bd9286e50"
    (Digest.to_hex (Digest.bytes b))

let suite =
  ( "workloads",
    [
      QCheck_alcotest.to_alcotest prop_sort_matches_stdlib;
      Alcotest.test_case "sort allocates nothing" `Quick test_sort_allocates_nothing;
      Alcotest.test_case "TreeSearch tree pinned" `Quick test_bst_pinned;
    ] )
