(** The buffer store backing a program run.

    Each buffer declared by a program is bound to an OCaml array and given
    a page-aligned base address in a flat modeled address space, so the
    cache simulator sees realistic, non-overlapping addresses. The modeled
    element size is 4 bytes (the paper's kernels are single-precision /
    32-bit integer), independent of OCaml's in-memory representation. *)

type buffer = Fbuf of float array | Ibuf of int array

type t

exception Bad_binding of string
(** Binding list does not match the program's buffer declarations. *)

exception Trap of string
(** Runtime memory fault (bounds, type confusion); also reused by the
    interpreter for all runtime faults. *)

val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Trap} with a formatted message. *)

val create : Isa.program -> (string * buffer) list -> t
(** Bind every declared buffer by name. Element types must match; extra or
    missing bindings raise {!Bad_binding}. *)

val get_f : t -> Isa.buf -> int -> float
(** Read a float element (bounds- and type-checked; raises {!Trap}). *)

val get_i : t -> Isa.buf -> int -> int
(** Read an int element (bounds- and type-checked; raises {!Trap}). *)

val set_f : t -> Isa.buf -> int -> float -> unit
(** Write a float element (bounds- and type-checked; raises {!Trap}). *)

val set_i : t -> Isa.buf -> int -> int -> unit
(** Write an int element (bounds- and type-checked; raises {!Trap}). *)

val resolve : t -> Isa.buf -> buffer * int
(** [resolve t buf] is [buf]'s live array (not a copy) and its modeled
    base byte address: element [i] lives at [base + 4 * i]. The compiled
    backend resolves every buffer once per session and then indexes the
    array directly after one bounds check of its own; an out-of-bounds or
    mistyped access falls back to the checked accessors above, so traps
    are the tree walker's. The binding of a buffer never changes after
    {!create}.
    @raise Invalid_argument if [buf] is not one of the program's buffers. *)

val address : t -> Isa.buf -> int -> int
(** Modeled byte address of an element. *)

val length : t -> Isa.buf -> int
(** Element count of a buffer. *)

val find : t -> string -> Isa.buf * buffer
(** Look a buffer up by name (the live array, not a copy).
    @raise Not_found *)

val total_bytes : t -> int
(** Total modeled bytes across buffers. *)
