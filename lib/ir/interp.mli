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

val run :
  ?regs:int array ->
  ?hook:(site:int -> taken:bool -> unit) ->
  ?max_steps:int ->
  Program.t ->
  mem:int array ->
  result
(** Execute from the entry function's entry block.  [regs] seeds the
    entry frame's register file (zeros by default; the array is not
    modified).  [max_steps] (default 1M) bounds runaway loops and
    recursion.  Memory is modified in place and shared by all frames. *)

val run_func :
  ?regs:int array ->
  ?hook:(site:int -> taken:bool -> unit) ->
  ?max_steps:int ->
  Func.t ->
  mem:int array ->
  result
(** [run] on the one-function program {!Program.of_func}. *)
