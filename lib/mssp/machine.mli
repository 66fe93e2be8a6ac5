(** The MSSP asymmetric-CMP timing simulator.

    One wide leading core executes the distilled (unchecked speculative)
    program task by task; eight narrow trailing cores re-execute the
    original code of each task to verify it.  A violated assumption is
    detected only when the task's verification completes — hundreds of
    cycles after the fault — and costs a rollback to the trailing state
    plus a non-speculative re-execution.  The baseline is the original
    program on the leading core alone, with a gshare predictor charging
    misprediction refills.

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
  baseline_mispredict_rate : float;
  evictions : int;
  selections : int;
}

val speedup : stats -> float
(** Baseline cycles over MSSP cycles. *)

type tape
(** What no controller decision changes: each task's region and branch
    outcomes (one int per task), the baseline's cycles and misprediction
    rate.  Immutable, so domains may share one, and every configuration
    of a workload may replay it. *)

val record : Workload.instance -> seed:int -> tape
(** Sample [instance.spec.tasks] tasks and price the baseline: a pure
    function of the instance's spec and seed and of [seed], reading
    none of the instance's versions. *)

val replay : Workload.instance -> tape -> params:Rs_core.Params.t -> stats
(** Run the controller, the master and the Table 5 timing model
    ({!Config.default}) over a recorded tape.  [params] configures the
    reactive controller; its [optimization_latency] is interpreted in
    cycles (~ original instructions at IPC 1), covering both the decision
    deployment and the re-distillation of the region.

    A task allocates only when it deploys a combination of decisions no
    run on the instance has deployed before, which fills a slot of
    {!Region_model.version}'s table: predictor tables and the in-flight
    ring are flat integer and float arrays.  That table belongs to the
    instance, so an instance must not be replayed on from two domains
    at once.
    @raise Invalid_argument if the instance's spec differs from the one
    the tape was recorded on. *)

val run : Workload.instance -> seed:int -> params:Rs_core.Params.t -> stats
(** [replay instance (record instance ~seed) ~params]: a pure function of
    the instance's spec and seed, [seed] and [params] — which is what
    lets [Rs_experiments.Cache.mssp] memoize it. *)
