(* Memory-access events emitted by the interpreter and consumed by the
   timing model's cache hierarchy. Addresses are modeled byte addresses in
   the VM's flat address space (see {!Memory}); [bytes] may span several
   cache lines for unit-stride vector accesses. *)

type kind = Read | Write

type t = {
  thread : int;
  addr : int;
  bytes : int;
  kind : kind;
  chain : bool;
      (* address depended on a previous load (pointer chasing): the miss
         latency cannot be hidden by memory-level parallelism *)
  nt : bool; (* non-temporal store: bypasses the cache hierarchy *)
}

type sink = t -> unit

type hook =
  thread:int -> addr:int -> bytes:int -> write:bool -> chain:bool -> nt:bool -> unit

let ignore_access ~thread:_ ~addr:_ ~bytes:_ ~write:_ ~chain:_ ~nt:_ = ()

(* The inner [let] makes a closure of exactly the six hook parameters
   (a [fun] written directly after [f] would be fused into one
   seven-parameter function, whose partial application is slower to
   call). *)
let hook_of_sink (f : sink) : hook =
  let hook ~thread ~addr ~bytes ~write ~chain ~nt =
    f { thread; addr; bytes; kind = (if write then Write else Read); chain; nt }
  in
  hook

let pp ppf { thread; addr; bytes; kind; chain; nt } =
  Fmt.pf ppf "[t%d] %s 0x%x+%d%s%s" thread
    (match kind with Read -> "R" | Write -> "W")
    addr bytes
    (if chain then " chain" else "")
    (if nt then " nt" else "")
