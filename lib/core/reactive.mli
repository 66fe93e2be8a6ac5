(** The reactive speculation controller (Section 3 of the paper).

    Each static branch is tracked by the finite-state machine of
    Figure 4(b):

    {v
              +-----------+   bias >= threshold    +--------+
         ---> | monitor   | ----------------------> | biased |
              +-----------+                          +--------+
                 ^    ^  \                              |
        revisit  |    |   \ bias < threshold            | eviction counter
        (wait    |    |    v                            | saturates
        period)  |  +----------+                        |
                 +--| unbiased |    <-------------------+
                    +----------+     (back to monitor)
    v}

    plus an oscillation limit (a branch that keeps moving in and out of
    the biased state is permanently retired from speculation) and a model
    of (re-)optimization latency: a decision only changes the {e deployed}
    code [optimization_latency] instructions after it is made, and the old
    code keeps executing — and keeps being scored — until then.

    The controller is purely observational: the driver scores each event
    against {!deployed} and then calls {!observe}. *)

type t

val create : ?on_transition:(Types.transition -> unit) -> n_branches:int -> Params.t -> t
(** [create ~n_branches params] tracks branches with dense ids
    [0 .. n_branches - 1].  [on_transition] is invoked synchronously at
    every state transition; it is the only way to see transitions, as
    the controller keeps no log of them.
    @raise Invalid_argument if [params] fails {!Params.validate} or
    [n_branches <= 0]. *)

val params : t -> Params.t

val deployed : t -> int -> Types.decision
(** What the currently deployed code does at this branch site.  This is
    what the execution must be scored against: it lags controller
    decisions by the optimization latency. *)

val deployed_code : t -> int -> int
(** {!deployed} as a 2-bit decision code — bit 0 [speculate], bit 1
    [direction] — so a batch consumer can score events with integer
    arithmetic. *)

val observe : t -> branch:int -> taken:bool -> instr:int -> unit
(** Feed one execution of [branch] with outcome [taken] at global
    instruction count [instr].  Instruction counts must be
    non-decreasing across calls.
    @raise Invalid_argument if [instr] is below the previous call's (the
    precondition is checked, naming the entry point, in the style of the
    {!Stream} config guards) or [branch] is out of range. *)

(** {2 Batched replay}

    The simulator's one per-event loop: whole packed chunks through the
    controller in one call, scored in place, with or without an
    observer; {!step_cells} is the same loop over a recording's 2-byte
    cells.  With an observer, the observer's closure is the loop's only
    call: the fast path runs inline after it. *)

type score = {
  mutable instr : int;  (** Instruction count after the last event. *)
  mutable correct : int;  (** Correct speculations. *)
  mutable incorrect : int;  (** Misspeculations. *)
  mutable last_misspec : int;  (** Instruction count of the last misspeculation (0 if none). *)
  mutable slow : int;
      (** Events {!step_chunk} sent through the generic machine instead
          of its fast path: a measure of the kernel, not of the run. *)
}
(** Scoring state threaded across {!step_chunk} calls. *)

val score : unit -> score
(** A fresh zeroed score. *)

val score_event : score -> taken:bool -> instr:int -> int -> unit
(** [score_event s ~taken ~instr code] scores one event at instruction
    count [instr] against the {!deployed_code}-style decision [code] it
    ran under: a deployed speculation is correct when [taken] matches its
    direction; a misspeculation sets [s.last_misspec] to [instr].
    Allocates nothing.  Leaves [s.instr] alone.  {!step_chunk}
    applies exactly this rule. *)

val step_chunk :
  ?observer:(branch:int -> taken:bool -> instr:int -> code:int -> unit) ->
  t ->
  score ->
  int array ->
  int ->
  unit
(** [step_chunk t s chunk len] feeds the first [len] packed events of
    [chunk] — the [Rs_behavior.Trace_store] encoding: bit 0 taken,
    bits 1-20 the instruction delta from the previous event, bits 21 and
    up the branch id — through the controller, each one exactly as
    {!deployed_code} then {!observe} at instruction count
    [s.instr + delta], and scores it into [s] as {!score_event} does.
    [observer], when given, sees each event before the controller
    observes it, as plain integers with the decision it runs under in
    {!deployed_code}'s 2-bit [code]; every transition the event causes
    fires after the call.  Allocates nothing per event.

    Most events change only phase scratch counters; a table derived
    from the parameters at {!create} lets those run through a call-free
    loop, for every parameter set: sampled eviction and the strided
    monitor keep their counters in the shape the table reads.  The
    events that still go through the same code as {!observe}, each
    counted in [s.slow], are transitions (closing a monitor interval,
    an eviction, a revisit), a pending deployment activating, a
    misspeculation, a strided monitor's sampled execution (one in
    [monitor_stride]), and the last event of a sampled-eviction sample
    or window.
    @raise Invalid_argument if [len] is outside the chunk, a branch id
    is out of range (named [Reactive.step_chunk], after the events before it
    have been applied, and without a call to [observer]), or [s.instr]
    is below the previous call's instruction count. *)

val step_cells :
  ?observer:(branch:int -> taken:bool -> instr:int -> code:int -> unit) ->
  t ->
  score ->
  Bytes.t ->
  int ->
  unit
(** [step_cells t s cells len] is {!step_chunk} over the first [len]
    events of a [Rs_behavior.Trace_store] cell chunk: event [i] is the
    native-endian 16-bit value at byte [2 * i], whose bits 0-3 are the
    event word's (taken, a 3-bit delta) and bits 4-15 its branch id.
    It decodes each cell in place and leaves [t] and [s], and makes the
    [observer] calls, exactly as [step_chunk] does on the same events
    as words.
    @raise Invalid_argument with [step_chunk]'s messages, on the same
    conditions ([len] outside [Bytes.length cells / 2]). *)

(** {2 State snapshot}

    The controller's state as plain integers — the packed per-branch
    state words plus the non-decreasing-[instr] cursor — so a long-lived
    service can checkpoint controllers and resume them bit-for-bit (the
    [rspec serve] snapshot format).  {!export_words} is the complete
    state: the controller keeps no transition log (transitions reach
    the caller only through [on_transition]), so a restored controller
    is indistinguishable from the one that was exported. *)

val export_words : t -> int array
(** Length [1 + n_branches * words-per-branch]: the monotonicity cursor
    followed by the packed state table.  A controller created with the
    same [params] and [n_branches] that {!import_words}s this array
    answers every {!deployed}/counter query identically and steps on
    exactly as this one would. *)

val validate_words : t -> int array -> (unit, string) result
(** Whether [words] could be this controller's {!export_words}: the
    right length, and every branch inside the invariants the machine
    keeps under [t]'s parameters (control bits, phase counters, the
    selection and eviction counts, deployed and pending code, a pending
    activation against the cursor).  The error names the first failing
    branch. *)

val import_words : t -> int array -> unit
(** Overwrite this controller's state with a previous {!export_words}.
    The caller must recreate the controller with the same parameters and
    branch count that produced the snapshot.
    @raise Invalid_argument (naming [Reactive.import_words]) if
    {!validate_words} rejects [words]; the controller is then
    unchanged. *)

(** Per-branch summary counters, for Table 3. *)

val selections : t -> int -> int
(** Times the branch entered the biased state. *)

val evictions : t -> int -> int
(** Times the branch was evicted from the biased state. *)

val touched : t -> int -> bool
(** Whether the branch executed at least once. *)

val capped : t -> int -> bool
(** Whether the oscillation limit retired the branch: it is in the
    disabled phase, which only a [Capped] transition enters and nothing
    leaves. *)

val n_branches : t -> int
