(** The distiller: produce MSSP-style unchecked speculative code.

    Given a program and a set of assumptions, returns the distilled
    program together with size accounting and per-pass statistics.  The
    pipeline prunes assumed-dead CFG edges, inlines calls along the
    speculated hot path, optimizes each function to a fixpoint and
    splits the entry function into hot and cold regions.  Distilling is
    pure in the program and the assumptions; a caller that re-optimizes
    repeatedly keeps its own table of versions (the MSSP region model
    keys one on the deployed decisions). *)

type stats = {
  inlined_calls : int;  (** Call sites inlined along the hot path. *)
  hot_blocks : int;  (** Entry-function blocks on the speculated path. *)
  cold_blocks : int;  (** Off-path blocks moved to the cold region. *)
  cold_entries : int;
      (** Distinct cold blocks directly reachable from hot code — the
          misspeculation-recovery entry stubs. *)
}

type result = {
  distilled : Rs_ir.Program.t;
  original_size : int;  (** Static instructions before distillation. *)
  distilled_size : int;
  stats : stats;
}

val distill : Rs_ir.Program.t -> Assumptions.t -> result
(** Inlines at most 8 call sites along the hot path
    ({!Passes.inline_calls}' default budget).  Consults the
    ["distill.pass"] fault-injection site ({!Rs_obs.Fault_hook}, key =
    pass name) before each pass; a pipeline that raises is rerun whole
    under {!Rs_util.Memo.retry}. *)
