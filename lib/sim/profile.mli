(** Whole-run branch profiles.

    One pass over a stream collecting, for every static branch, its total
    execution and taken counts plus snapshots of the taken count at the
    initial-window checkpoints of {!Rs_core.Static.windows}.  All static
    policies of Section 2.2 (self-training, offline profiling,
    initial-behaviour windows) are evaluated from this single structure
    without replaying the stream. *)

type t

val collect :
  ?windows:int array ->
  ?trace:Rs_behavior.Trace_store.t ->
  Rs_behavior.Population.t ->
  Rs_behavior.Stream.config ->
  t
(** Run the stream once and collect the profile.  [windows] are the
    initial-window checkpoint lengths, strictly increasing (default
    {!Rs_core.Static.windows}).  [trace] replays a prerecorded trace of
    the same (population, config) instead of regenerating the stream;
    the resulting profile is identical.
    @raise Invalid_argument if the trace does not match. *)

val windows : t -> int array
(** The checkpoint lengths this profile recorded. *)

val n_branches : t -> int
val total_events : t -> int
val total_instructions : t -> int

val counts : t -> int -> Rs_core.Static.counts
(** Whole-run counts of one branch. *)

val execs_of : t -> int -> int
val taken_of : t -> int -> int
(** The fields of {!counts} individually — no record materialized, for
    consumers sweeping every branch ({!Pareto}). *)

val counts_in_window : t -> int -> window:int -> Rs_core.Static.counts
(** Counts over the first [min window execs] executions.  [window] must
    be one of the profile's {!windows}.
    @raise Invalid_argument otherwise. *)

val counts_after_window : t -> int -> window:int -> Rs_core.Static.counts
(** Counts over the executions after the window (the period a
    window-trained decision actually speculates on). *)
