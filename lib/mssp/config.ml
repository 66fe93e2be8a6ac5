type core = { width : int; pipeline_depth : int; effective_ipc : float }

type t = {
  leading : core;
  trailing : core;
  n_trailing : int;
  coherence_hop : int;
  task_overhead : int;
  recovery_penalty : int;
  max_inflight_tasks : int;
  iters_per_task : int;
  predictor_bits : int;
}

let default =
  {
    leading = { width = 4; pipeline_depth = 12; effective_ipc = 1.8 };
    trailing = { width = 2; pipeline_depth = 8; effective_ipc = 1.0 };
    n_trailing = 8;
    coherence_hop = 10;
    task_overhead = 10;
    recovery_penalty = 150;
    max_inflight_tasks = 8;
    iters_per_task = 2;
    predictor_bits = 12;
  }
