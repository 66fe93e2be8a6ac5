(** Hot regions with precomputed path lengths.

    The timing simulator never interprets instructions on the critical
    path: for each region it precomputes, by interpretation, the dynamic
    path length of the original code for every outcome vector of its [k]
    branch sites (a [2^k] table), and lazily does the same for each
    distilled version the dynamic optimizer produces.  Task timing then
    reduces to table lookups; the tables are rebuilt only when the
    speculation controller changes a decision — which is exactly when a
    real system would re-optimize. *)

type t

val create : Rs_ir.Synth.t -> t

val n_sites : t -> int
val site_ids : t -> int array

val original_length : t -> outcomes:int -> int
(** Dynamic instructions of the original code when the sites take the
    outcomes packed in the bit vector (bit [j] = site [j] taken). *)

val original_branches : t -> outcomes:int -> int array
(** The branches actually executed on that path, in order, each packed
    into one int: [site lsl 6] (the branch's site id), [j lsl 1] (a 5-bit
    field: the site's index in {!site_ids}, which is its bit in outcome
    vectors and version masks, or [n_sites] for a loop site no version
    can assume) and bit 0, the outcome (1 = taken).  Precomputed once
    per outcome vector: the array is shared and must not be mutated. *)

(** One distilled version of the region. *)
module Version : sig
  type v

  val assumptions : v -> Rs_distill.Assumptions.t
  val static_original : v -> int
  val static_distilled : v -> int

  val length : v -> outcomes:int -> int
  (** Dynamic instructions of the distilled code under these outcomes.
      Removed branches ignore the real outcome (they were deleted). *)

  val assumed_mask : v -> int
  (** Bit [j] is set iff site [j] (indexing {!site_ids}) is assumed — its
      branch was removed from the distilled code. *)

  val violated : v -> outcomes:int -> bool
  (** Whether any assumed site's outcome contradicts its assumption. *)

  val violations : v -> outcomes:int -> int
  (** How many assumed sites contradict their assumptions — the paper's
      Section 4.3 observation is that several of these often fall inside
      one task, costing a single task squash. *)

  val branches_executed : v -> outcomes:int -> int
  (** Branch instructions remaining on the distilled path. *)

  val stats : v -> Rs_distill.Distill.stats
  (** The distiller's inlining and hot/cold split counts. *)
end

val version_bits : t -> mask:int -> bits:int -> Version.v
(** Distill (or fetch from the region's version table) the version for
    the branch assumptions given as bit vectors over {!site_ids}: site
    [j] is assumed iff bit [j] of [mask] is set, in direction bit [j] of
    [bits].  The version table is keyed by this
    pair, so a hit builds no assumption list.  A miss distills the
    assumptions listed in site order.  The table is shared by every
    caller of this region model: a region model must not be used from
    two domains at once. *)

val recompilations : t -> int
(** Distinct versions this region model has built so far, over all
    callers (including the empty one).  {!Machine.run} reports its own
    per-run count instead. *)
