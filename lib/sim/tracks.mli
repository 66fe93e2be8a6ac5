(** Time-resolved bias measurements (Figures 3 and 9).

    These are measurements of the {e workload}, independent of any
    controller: Figure 3 plots per-branch bias averaged over blocks of
    1,000 executions, and Figure 9 plots, for each branch with significant
    periods of both behaviours, the periods during which it is highly
    biased (>99 %) on a global time axis. *)

(** Bias per fixed-size block of one branch's executions (Figure 3). *)
module Exec_blocks : sig
  type t

  val collect :
    ?trace:Rs_behavior.Trace_store.t ->
    Rs_behavior.Population.t ->
    Rs_behavior.Stream.config ->
    branches:int list ->
    block:int ->
    t
  (** Track the given branches; each block covers [block] executions.
      [trace] replays a prerecorded trace of the same (population,
      config) instead of regenerating; identical results. *)

  val series : t -> int -> (int * float) list
  (** [(block_index, taken_fraction)] pairs for a tracked branch, in
      order; partial final blocks with fewer than [block/10] executions
      are dropped.  @raise Not_found if the branch was not tracked. *)
end

(** Biased-interval tracks on a global time axis (Figure 9). *)
module Intervals : sig
  type t

  val collect :
    ?trace:Rs_behavior.Trace_store.t ->
    Rs_behavior.Population.t ->
    Rs_behavior.Stream.config ->
    buckets:int ->
    min_execs:int ->
    t
  (** Split the run into [buckets] equal instruction windows and measure
      every branch's bias in each; windows with fewer than [min_execs]
      executions are treated as inheriting the previous classification.
      [trace] replays a prerecorded trace instead of regenerating. *)

  val flippers : t -> threshold:float -> (int * (int * int) list) list
  (** Branches that have at least one window classified biased
      (bias >= threshold) {e and} one classified unbiased, with their
      biased intervals as [(first_bucket, last_bucket)] spans — the
      population Figure 9 plots. *)
end
