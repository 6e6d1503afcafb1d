(** Deterministic synthetic input generators for the benchmark suite.

    All generators are pure functions of their [seed]; the benchmark harness
    uses fixed seeds so modeled cycle counts are reproducible run to run. *)

val floats : seed:int -> ?lo:float -> ?hi:float -> int -> float array
(** [n] uniform floats in [\[lo, hi)] (default [\[0, 1)]). *)

val ints : seed:int -> bound:int -> int -> int array
(** [n] uniform ints in [\[0, bound)]. *)

val permutation : seed:int -> int -> int array
(** A uniform random permutation of [0..n-1]. *)

val sort_floats : float array -> unit
(** Sort in place into ascending {!Float.compare} order without
    allocating: a monomorphic introsort (median-of-three quicksort,
    insertion sort below 16 elements, heapsort past depth 2·log2 n), so
    no element is boxed. Not stable, and it makes no promise about the
    relative order of [-0.] and [0.], which {!Float.compare} treats as
    equal; NaNs, if any, sort first, as there. The result is equal,
    element for element under {!Float.compare}, to
    [Array.sort Float.compare]. *)

val sorted_floats : seed:int -> ?lo:float -> ?hi:float -> int -> float array
(** Sorted uniform floats ({!floats} then {!sort_floats}) — e.g.
    tree-key construction. *)

val interleave2 : float array -> float array -> float array
(** [interleave2 a b] is the AoS layout [a0; b0; a1; b1; ...]. The two
    arrays must have equal length. *)

val interleave : float array list -> float array
(** Generalized AoS packing of equal-length field arrays. *)

val grid3d : seed:int -> nx:int -> ny:int -> nz:int -> float array
(** A 3-D field in x-major layout (index [x + nx * (y + ny * z)]) with
    smooth-ish random contents. *)

val bst_level_order : seed:int -> depth:int -> float array
(** Keys of a perfect binary search tree of [depth] levels (2^depth - 1
    keys), laid out in level order: node [i]'s children are [2i+1] and
    [2i+2]. Keys are strictly increasing in in-order traversal. *)
