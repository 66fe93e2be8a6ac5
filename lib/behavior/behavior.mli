(** Per-branch outcome models.

    The paper's experiments consume only the sequence of outcomes of each
    static conditional branch.  This module defines the generative models
    from which synthetic populations are built; the shapes mirror the
    behaviours characterized in Sections 2.1-2.3 of the paper:

    - stationary branches (the bulk of the population, Figure 2);
    - the deterministic induction-variable flip ("false the first 32,768
      executions, then true the rest", Section 2.3);
    - piecewise-stationary phase changes, softening and full reversal
      (Figure 3, Figure 6), all built from {!Phases};
    - periodic two-region behaviour whose {e average} bias is moderate but
      which is highly biased within each region (the gzip/mcf case where
      the reactive model beats self-training, Section 3.2);
    - globally-clocked phases for the correlated groups of Figure 9. *)

type t =
  | Stationary of float
      (** [Stationary p]: each execution is taken with probability [p]. *)
  | Flip_at of { threshold : int; first : bool }
      (** Deterministic: outcome [first] for the first [threshold]
          executions, then [not first] forever. *)
  | Phases of phase array
      (** Piecewise stationary in the branch's own execution count; the
          last phase extends to infinity. *)
  | Periodic of { region : int; p_first : float; p_second : float }
      (** Alternating regions of [region] executions with taken
          probabilities [p_first] and [p_second]. *)
  | Global_phases of global_phase array
      (** Piecewise stationary in the {e global instruction count} rather
          than the branch's execution index; used to let several branches
          change behaviour together (Figure 9).  The last phase extends to
          infinity. *)

and phase = { length : int; p_taken : float }
and global_phase = { until_instr : int; gp_taken : float }

val p_taken : t -> exec_index:int -> instr:int -> float
(** Taken-probability of the execution with 0-based per-branch index
    [exec_index] occurring at global instruction [instr].  Deterministic
    models return 0 or 1. *)

val exec_change : t -> exec_index:int -> int
(** The first execution index past [exec_index] at which {!p_taken} may
    change (the end of the current phase or region), or [max_int]. *)

val instr_change : t -> instr:int -> int
(** The same on the instruction clock, which only {!Global_phases} reads;
    [max_int] for the other models. *)
