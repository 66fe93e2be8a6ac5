(** Adversarial populations pinned to the controller's own thresholds.

    {!Benchmark} models well-behaved SPECint-like programs; the related
    work on speculation attacks asks the opposite question — what is the
    {e worst} stream a reactive controller can face?  Each scenario here
    is built from the controller parameters themselves, so the schedules
    stay pinned to the selection/eviction/revisit thresholds under any
    [tau] compression or parameter sweep:

    - [osc_flip]: perfectly biased regions exactly one monitor window
      plus one eviction run (plus the deployment lag) long, flipping
      direction each region — one selection and one eviction per region
      until the oscillation cap retires the branch;
    - [near_evict]: misspeculation sawtooth bursts one miss short of the
      eviction threshold, separated by exactly the drain run that resets
      the counter — maximum sustained damage with zero evictions;
    - [revisit_starve]: a fair coin for exactly the executions of every
      monitor window, perfect bias in between — the revisit arc
      re-monitors forever and the branch is never selected;
    - [mixed]: all three classes diluted by benign stationary background
      traffic.

    Populations are deterministic in [(scenario, seed, scale, params)]. *)

type t = { name : string; summary : string }

val all : t list
val names : string list

val find : string -> t
(** @raise Not_found for an unknown scenario. *)

val instr_per_branch : float
(** Stream instruction rate every scenario uses (5.0). *)

(** Derived threshold quantities (exposed for tests and experiments). *)

val monitor_execs : Rs_core.Params.t -> int
(** Executions a monitor window spans: [monitor_samples * stride]. *)

val evict_misses : Rs_core.Params.t -> int
(** Consecutive misspeculations that trigger an eviction. *)

val latency_execs : Rs_core.Params.t -> n_branches:int -> int
(** Deployment lag in one branch's executions when it shares the stream
    evenly with [n_branches - 1] others, padded for sampling noise. *)

val build :
  t ->
  params:Rs_core.Params.t ->
  seed:int ->
  scale:float ->
  Rs_behavior.Population.t * Rs_behavior.Stream.config
(** Instantiate the scenario against these controller parameters.
    [scale] in (0, 1] shrinks the static population as in
    {!Benchmark.build}; per-branch schedules never shrink (they are
    pinned to the thresholds).
    @raise Invalid_argument on a scale outside (0, 1] or params failing
    {!Rs_core.Params.validate}. *)
