(** Quarantine-time accounting for mistraining attacks.

    When an attacker poisons a trained branch (see
    [Rs_workload.Mistrain]), the security-relevant number is how long
    the {e deployed} code keeps speculating after the first poisoned
    misspeculation — the window in which wrong-path effects are live.
    This tracker hangs off [Engine.run]'s [observer] hook and
    records, per branch: execution and misspeculation totals, the first
    misspeculation of deployed speculative code, and the {e quarantine
    point} — the first subsequent execution at which the deployed code
    no longer speculates (the controller's eviction having propagated
    through the optimization latency).

    The {e quarantine time} is the distance between those two points, in
    victim executions and in instructions.  A branch that never
    misspeculates while speculating, or whose code is still speculating
    at end of run, has no quarantine time — the latter is exactly the
    unbounded exposure of a static always-speculate policy. *)

type t

val create : n_branches:int -> t
(** Fresh tracker for branches [0 .. n_branches - 1].
    @raise Invalid_argument if [n_branches <= 0]. *)

val observer : t -> branch:int -> taken:bool -> instr:int -> code:int -> unit
(** [observer t] feeds the tracker one scored event; pass it directly as
    [Engine.run ~observer].  [code] is the deployed decision in
    [Reactive.deployed_code]'s 2-bit encoding (bit 0 speculate, bit 1
    direction). *)

val execs : t -> int -> int
(** Executions seen for this branch. *)

val misspecs : t -> int -> int
(** Misspeculations of deployed speculative code for this branch. *)

val quarantined : t -> int -> (int * int) option
(** [(exec_index, instr)] of the first non-speculating execution after
    the first misspeculation, if the controller got there. *)

val time_to_quarantine : t -> int -> (int * int) option
(** [(execs, instrs)] between first misspeculation and quarantine —
    [None] while the deployed code is still speculating (or never
    misspeculated). *)
