(** The MSSP asymmetric-CMP timing simulator.

    One wide leading core executes the distilled (unchecked speculative)
    program task by task; eight narrow trailing cores re-execute the
    original code of each task to verify it.  A violated assumption is
    detected only when the task's verification completes — hundreds of
    cycles after the fault — and costs a rollback to the trailing state
    plus a non-speculative re-execution.  The same pass prices the
    baseline: the original program on the leading core alone, with a
    gshare predictor charging misprediction refills.

    The speculation controller ({!Rs_core.Reactive}) watches every branch
    outcome (the trailing cores see them all) and drives which sites are
    assumed; each decision change re-distills the affected region —
    latency, but no overhead, exactly as the paper models its dynamic
    optimizer. *)

type stats = {
  mssp_cycles : float;
  baseline_cycles : float;
  tasks : int;
  squashes : int;  (** Task-level misspeculations. *)
  violated_branches : int;
      (** Branch-level assumption violations; several can share one task
          squash (Section 4.3). *)
  orig_instrs : int;  (** Original-program instructions. *)
  master_instrs : int;  (** Distilled instructions the master executed. *)
  recompilations : int;
      (** Distinct distilled versions this run deployed, summed over
          regions.  Per-run: versions an earlier run on the same
          instance already built are counted again if this run uses
          them, so the stats never depend on run order. *)
  baseline_mispredict_rate : float;
  evictions : int;
  selections : int;
}

val speedup : stats -> float
(** Baseline cycles over MSSP cycles. *)

val run :
  ?config:Config.t ->
  Workload.instance ->
  seed:int ->
  params:Rs_core.Params.t ->
  stats
(** Simulate [instance.spec.tasks] tasks.  [params] configures the
    reactive controller; its [optimization_latency] is interpreted in
    cycles (~ original instructions at IPC 1), covering both the decision
    deployment and the re-distillation of the region.

    The result is a pure function of the instance's spec and seed,
    [seed], [params] and [config] — which is what lets
    [Rs_experiments.Cache.mssp] memoize it.  A task allocates only when
    it meets a region, or a combination of deployed decisions, the run
    has not seen before: branch outcomes, predictor tables, the
    in-flight ring and the version lookups are flat integer and float
    arrays.  Region models share their distilled versions across runs,
    so an instance must not be run from two domains at once.
    @raise Invalid_argument if [config.max_inflight_tasks < 1] or a
    region has more than 8 sites. *)
