type t = { seed : int; scale : float; tau : int; jobs : int }

let default =
  {
    seed = 42;
    scale = 0.25;
    tau = Rs_workload.Benchmark.default_tau;
    jobs = Domain.recommended_domain_count ();
  }

let create ?(seed = default.seed) ?(scale = default.scale) ?(tau = default.tau)
    ?(jobs = default.jobs) () =
  { seed; scale; tau; jobs = max 1 jobs }

let pool t = Rs_util.Pool.shared ~jobs:t.jobs

let params_of t p = Rs_core.Params.compress ~factor:t.tau p

let params t = params_of t Rs_core.Params.default

let windows t = Rs_core.Static.windows_for ~tau:t.tau

let m_builds = Rs_obs.Metrics.counter "context.builds"

let build t bm ~input =
  Rs_obs.Metrics.incr m_builds;
  if Rs_obs.Trace.enabled () then
    Rs_obs.Trace.emit "build"
      [
        S ("bench", bm.Rs_workload.Benchmark.name);
        S ("input", (match input with Rs_workload.Benchmark.Ref -> "ref" | Train -> "train"));
        I ("seed", t.seed);
        F ("scale", t.scale);
        I ("tau", t.tau);
      ];
  Rs_workload.Benchmark.build bm ~input ~seed:t.seed ~scale:t.scale ~tau:t.tau

let describe t = Printf.sprintf "seed=%d scale=%.2f tau=%d" t.seed t.scale t.tau
