(** Section 2.1's profitability inequality.

    Speculation pays when
    [correct_preds * benefit > incorrect_preds * penalty], i.e. when the
    correct-to-incorrect ratio exceeds the penalty-to-benefit ratio.  The
    paper's thesis needs misspeculation rates low enough that penalties
    {e two orders of magnitude} larger than the per-speculation benefit
    stay profitable.  This experiment reports, per benchmark, the
    break-even penalty/benefit ratio the reactive baseline sustains, next
    to the same ratio for the no-eviction (open-loop) policy.

    It also reports the complementary slack: the {e eviction-threshold
    headroom}, i.e. the largest power-of-two scaling of the eviction
    trigger that still keeps misspeculation under 0.1% of dynamic
    branches.  The crossing point is found by {!headroom}, a bisection
    over memoised engine runs. *)

type row = {
  benchmark : string;
  reactive_ratio : float;  (** correct / incorrect under the baseline. *)
  open_loop_ratio : float;
  headroom : int option;
      (** log2 of the eviction-threshold headroom; [None] when even the
          paper threshold breaks the misspeculation bound. *)
}

type t = { rows : row list }

val headroom_cap : int
(** Largest exponent probed: thresholds up to [2^headroom_cap] times the
    paper's. *)

val headroom : pass_at:(int -> bool) -> int option
(** [headroom ~pass_at] is the largest [e] in [[0, headroom_cap]] with
    [pass_at e], for a monotone [pass_at] (true up to a crossing point,
    false after it); [None] when [pass_at 0] fails.  Probes [0], then
    [headroom_cap], then bisects between them, calling [pass_at] at
    most once per exponent. *)

val run : Context.t -> t
val render : t -> string
