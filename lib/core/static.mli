(** Static (decide-once) speculation policies.

    These are the paper's Section 2.2 baselines: the speculation set is
    chosen once — from whole-run behaviour (self-training), from another
    input's profile, or from an initial window of the current run — and
    never revisited.  The decision logic here is pure; the evaluation
    against a run's counts lives in the simulator library. *)

type counts = { execs : int; taken : int }
(** Execution profile of one static branch. *)

val bias : counts -> float
(** Majority-direction fraction; 0.5 for an empty profile. *)

val select : threshold:float -> counts -> Types.decision
(** Speculate in the majority direction iff the bias reaches [threshold]
    and the branch executed at least once. *)

val score : Types.decision -> counts -> int * int
(** [score decision counts] is [(correct, incorrect)] speculation counts
    that the decision accrues over a period with the given counts. *)

val windows : int array
(** The initial-behaviour window lengths explored by Figure 2:
    1k, 10k, 100k, 300k and 1M executions. *)

val windows_for : tau:int -> int array
(** The same windows on a time axis compressed by [tau] (see
    {!Params.compress}), clamped below at 100 executions. *)
