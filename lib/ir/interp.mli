(** Reference interpreter.

    Executes a program over a flat integer memory, counting dynamic
    instructions and reporting every conditional-branch outcome through a
    hook.  Each call activation gets a fresh register frame: a [Call]'s
    argument values are copied into the callee's [r0..], its return value
    into the caller's designated register; a [TailCall]'s return value
    becomes the caller's own.  Used to (1) compute per-path dynamic
    lengths for the MSSP timing model, (2) differentially verify the
    distiller, and (3) drive the examples. *)

type result = {
  return_value : int option;
  dyn_instrs : int;  (** Executed instructions, terminators included. *)
  blocks_visited : int;
}

exception Stuck of string
(** Raised on an out-of-bounds memory access, a step-budget overrun, a
    call-depth overrun, or a call expecting a value from a [Ret None]. *)

val run : ?hook:(site:int -> taken:bool -> unit) -> Program.t -> mem:int array -> result
(** Execute from the entry function's entry block, its registers all
    zero.  A budget of 1M steps bounds runaway loops and recursion.
    Memory is modified in place and shared by all frames. *)
