(** A gshare branch predictor (global history XOR PC indexing a table of
    2-bit counters), used to charge branch-misprediction refills to cores
    executing unspeculated code. *)

type t

val create : bits:int -> t
(** [create ~bits] builds a [2^bits]-entry table of counters, each
    weakly not-taken (1), and an empty history. *)

val step : t -> pc:int -> taken:int -> active:int -> int
(** [step t ~pc ~taken ~active] predicts the branch at [pc] and returns
    1 if the prediction differs from [taken], 0 if it matches; with
    [active = 1] it then trains the counter on [taken] and shifts it
    into the history.  With [active = 0] it returns 0 and changes
    nothing.  [taken] and [active] must each be 0 or 1.  No branch in
    it depends on either, so a caller's loop over random outcomes (or
    over a mix of predicted and skipped branches) costs the host no
    mispredictions. *)

val counter : t -> int -> int
(** The 2-bit counter (0..3) at a table index: 2 and above predict
    taken. *)

val history : t -> int
(** The global history: the last [bits] trained outcomes, newest in bit 0. *)
