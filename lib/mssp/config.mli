(** MSSP machine configuration (Table 5 of the paper).

    The timing model is first-order: cores are characterized by an
    effective IPC derived from their issue width, branch mispredictions
    cost a pipeline refill, and cross-core communication costs coherence
    hops.  Misspeculation recovery restarts the speculative program from
    the trailing program's state, several hundred cycles after the fault
    — the cost structure that makes aggressive software speculation
    demand very low misspeculation rates. *)

type core = {
  width : int;  (** Issue width. *)
  pipeline_depth : int;  (** Stages; also the misprediction refill cost. *)
  effective_ipc : float;  (** Sustained IPC on integer code. *)
}

type t = {
  leading : core;  (** The big core: master thread / baseline superscalar. *)
  trailing : core;  (** One of the small verification cores. *)
  n_trailing : int;  (** 8 in the paper. *)
  coherence_hop : int;  (** Min cycles between processors (10). *)
  task_overhead : int;  (** Cycles to fork/commit one task. *)
  recovery_penalty : int;
      (** Cycles from detection to restart of the speculative program,
          beyond re-execution (checkpoint restore + refill). *)
  max_inflight_tasks : int;  (** Checkpoint buffer depth. *)
  iters_per_task : int;
      (** Hot-region iterations folded into one task: MSSP tasks span
          several loop iterations, so one static branch can misspeculate
          more than once inside a single task (Section 4.3). *)
  predictor_bits : int;  (** log2 of gshare counter table (8 Kbit = 4096 entries = 12). *)
}

val default : t
(** Table 5: 4-wide 12-stage leading core, 2-wide 8-stage trailing cores,
    8 trailing cores, 10-cycle hops, 8 Kbit gshare. *)
