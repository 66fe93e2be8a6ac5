(** Synthetic SPEC2000-integer-like benchmark configurations.

    The paper evaluates on the 12 SPECint benchmarks (Alpha binaries run
    for billions of instructions); we do not have those, so each benchmark
    here is a synthetic branch population calibrated to the per-benchmark
    statistics the paper publishes:

    - static conditional branch counts and the fraction that become biased
      (Table 3 "touch" and "bias" columns);
    - the count of branches evicted from the biased state and the total
      number of evictions (Table 3 "evict" and "total evicts");
    - the fraction of dynamic branches eliminated by speculation
      (Table 3 "% spec.");
    - the changing-branch shapes of Figures 3 and 6 (reversal, softening,
      deterministic induction flips, misspeculation bursts);
    - heavy periodic branches in gzip and mcf whose whole-run bias is
      moderate but which are highly biased within each region — the cases
      where the reactive model beats self-training (Section 3.2);
    - "late bias" branches that are unbiased early and biased afterwards,
      the source of the ~20 % of benefit that requires the revisit arc
      (Sections 2.2 and 3.3);
    - input-dependent branches whose direction flips between the profile
      and evaluation inputs (Table 1 / Figure 2 triangles);
    - correlated groups that change behaviour together on a global clock
      (vortex, Figure 9).

    Populations are deterministic in [(benchmark, input, seed, scale)]. *)

type input = Ref | Train
(** Which data set drives the run: [Ref] is the evaluation input, [Train]
    the differing profile input of Table 1. *)

(** Declarative class mix of one benchmark; counts are static branches.
    Classes not listed here (edge, medium, weak, cold) are derived from
    the touch target. *)
type mix = {
  strong : int;  (** Stationary, p in [0.996, 1.0]; the speculation fuel. *)
  single_change : int;  (** One behaviour change: reversal/soften/flip. *)
  burst2 : int;  (** Two misspeculation bursts -> two evictions. *)
  burst3 : int;  (** Three bursts. *)
  burst4 : int;  (** Four bursts. *)
  oscillator : int;
      (** Perfectly biased in alternating directions region by region;
          exercises the oscillation limit. *)
  heavy_periodic : int;  (** Hot two-region periodic branches. *)
  late_bias : int;  (** Unbiased start, biased tail (revisit benefit). *)
  input_dep : int;  (** Direction decided by the input data set. *)
  groups : int * int;  (** (group count, group size): global-phase groups. *)
}

type t = {
  name : string;
  touch : int;  (** Static conditional branches in the population. *)
  mix : mix;
  instr_per_branch : float;  (** Mean instructions between branches. *)
  spec_share : float;  (** Target fraction of dynamic branches speculated. *)
  minority : float;
      (** Mean minority fraction of the strong class: the steady-state
          misspeculation rate of the selected set, which sets the
          benchmark's misspeculation-distance ordering (Table 3). *)
  coverage_gap : float;
      (** Fraction of strong branches left unexercised by the Train input
          (the code-coverage failure mode of offline profiling). *)
  change_window : int * int;
      (** Execution-index range in which single-change branches change. *)
  flip_quirk : int option;
      (** A heavy deterministic flip at this execution threshold (the mcf
          case where even a 1M-execution initial window misclassifies). *)
  paper : paper_row;  (** The paper's Table 3 row, for report columns. *)
}

and paper_row = {
  p_touch : int;
  p_bias : int;
  p_evict : int;
  p_total_evicts : int;
  p_spec_pct : float;
  p_misspec_dist : int;
}

val all : t list
(** The 12 benchmarks, in the paper's order. *)

val find : string -> t
(** Look up by name.  @raise Not_found for an unknown benchmark. *)

val names : string list

val default_tau : int
(** The canonical time-compression factor (10): workload change periods,
    the controller wait period and the optimization latency are all
    divided by this, keeping their Table 2 ratios while making full runs
    tractable (paper-exact runs need billions of branch events per
    benchmark).  Pass [tau = 1] everywhere for paper-exact time. *)

val build :
  t ->
  input:input ->
  seed:int ->
  scale:float ->
  tau:int ->
  Rs_behavior.Population.t * Rs_behavior.Stream.config
(** Instantiate the population and the matching stream configuration.

    [scale] in (0, 1] shrinks the static population — and therefore the
    run length — proportionally, preserving per-branch execution counts
    and hence the controller dynamics.  Counts reported from a scaled run
    are comparable to the paper's after dividing by [scale]; rates
    (% speculated, misspeculation distance) are comparable directly.

    [tau] compresses the time axis of the {e slow} behaviours (periodic
    regions, late-bias onsets, the induction flip, slow change windows);
    run the controller with {!Rs_core.Params.compress}[ ~factor:tau] so
    both sides stay on one clock.

    The [Train] input re-seeds the stochastic choices, flips the direction
    of every input-dependent branch, and leaves [coverage_gap] of the
    strong branches unexercised, reproducing the two failure modes of
    offline profiling discussed in Section 2.2 of the paper.

    @raise Invalid_argument if [scale] is outside (0, 1]. *)

val scale_count : float -> int -> int
(** [scale_count scale n] is [n *. scale] rounded, but at least 1 when
    [n > 0]: how every population count shrinks with the run's scale
    (also for the adversarial, mistraining and interleaving workloads). *)

val flip_phases :
  bool -> Rs_behavior.Behavior.phase array -> Rs_behavior.Behavior.phase array
(** [flip_phases dir phases] is [phases] when [dir] holds, else [phases]
    with every taken-probability mirrored — one schedule for a branch
    of either majority direction. *)

val biased_class_size : t -> scale:float -> int
(** Number of static branches expected to enter the biased state at least
    once (the Table 3 "bias" column target, scaled). *)
