(** Shared experiment configuration.

    Every reproduction runs under a context fixing the random seed, the
    population scale and the time-compression factor, so that a whole
    bench invocation is reproducible from three numbers (printed in its
    header). *)

type t = {
  seed : int;
  scale : float;  (** Population scale in (0, 1]; see {!Rs_workload.Benchmark.build}. *)
  tau : int;  (** Time-compression factor; 1 = paper-exact time. *)
  jobs : int;
      (** Parallelism width for the experiment runners; >= 1.  [jobs]
          never affects results — every experiment is deterministic in
          [(seed, scale, tau)] alone — only how many domains compute
          them. *)
}

val default : t
(** seed 42, scale 0.25, tau {!Rs_workload.Benchmark.default_tau} and
    jobs {!Domain.recommended_domain_count}.  The CLI reads overrides
    from [RS_SEED], [RS_SCALE], [RS_TAU] and [RS_JOBS]. *)

val create : ?seed:int -> ?scale:float -> ?tau:int -> ?jobs:int -> unit -> t

val pool : t -> Rs_util.Pool.t
(** The process-wide work pool sized to this context's [jobs] (see
    {!Rs_util.Pool.shared}).  With [jobs = 1] the pool runs everything
    on the calling domain in input order. *)

val params : t -> Rs_core.Params.t
(** Table 2 parameters on the context's compressed clock. *)

val params_of : t -> Rs_core.Params.t -> Rs_core.Params.t
(** Compress arbitrary parameters (e.g. a Figure 5 variant) onto the
    context's clock. *)

val windows : t -> int array
(** Initial-behaviour windows on the compressed clock. *)

val build :
  t ->
  Rs_workload.Benchmark.t ->
  input:Rs_workload.Benchmark.input ->
  Rs_behavior.Population.t * Rs_behavior.Stream.config
(** Instantiate a benchmark under this context.  Bumps the
    [context.builds] counter of {!Rs_obs.Metrics} and, when tracing is
    on, emits a ["build"] {!Rs_obs.Trace} event identifying the
    benchmark, input and [(seed, scale, tau)]. *)

val describe : t -> string
(** One-line header string. *)
