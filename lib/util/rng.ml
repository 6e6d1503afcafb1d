(* The 64-bit state lives in 8 raw bytes rather than a mutable [int64]
   field, which would box a fresh Int64 on every step. With [next_int64]
   inlined below, a draw allocates only the boxed result it returns:
   generating TreeSearch's 8.4M keys fell from 101M minor words to 17M,
   and the fewer minor collections also stall other domains less. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* SplitMix64 output function: add the gamma, then mix with two
   xor-shift-multiply rounds (constants from Vigna's reference code). *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let[@inline] float t bound =
  assert (bound > 0.);
  (* 53 high-quality bits, mapped to [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let[@inline] float_range t lo hi =
  assert (lo < hi);
  lo +. float t (hi -. lo)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = of_state (next_int64 t)
