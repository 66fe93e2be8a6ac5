(** Hot regions with precomputed path lengths.

    The timing simulator never interprets instructions on the critical
    path: for each region it precomputes, by interpretation, the dynamic
    path length of the original code for every outcome vector of its [k]
    branch sites (a [2^k] table), and lazily does the same for each
    distilled version the dynamic optimizer produces.  Task timing then
    reduces to table lookups.  A version is a pure function of the region
    and its assumptions, so each region keeps one table of versions, for
    every run on it: a version is distilled the first time any run
    deploys its decisions — which is exactly when a real system would
    re-optimize. *)

type t

val create : Rs_ir.Synth.t -> t
(** @raise Invalid_argument if the region has more than 8 sites: the
    version table holds [4^k] slots. *)

val site_ids : t -> int array

val original_length : t -> outcomes:int -> int
(** Dynamic instructions of the original code when the sites take the
    outcomes packed in the bit vector (bit [j] = site [j] taken). *)

val original_branches : t -> outcomes:int -> int array
(** The branches actually executed on that path, in order, each packed
    into one int: [site lsl 6] (the branch's site id), [j lsl 1] (a 5-bit
    field: the site's index in {!site_ids}, which is its bit in outcome
    vectors and version masks, or the number of sites for a loop site
    no version can assume) and bit 0, the outcome (1 = taken).
    Precomputed once per outcome vector: the array is shared and must
    not be mutated. *)

(** One distilled version of the region. *)
module Version : sig
  type v

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
end

val version : t -> key:int -> Version.v
(** The version for the deployed decisions packed in [key], 2 bits per
    site: bit [2j] set iff site [j] (indexing {!site_ids}) is assumed,
    bit [2j+1] its assumed direction (the {!Rs_core.Reactive.deployed_code}
    encoding).  The table has a slot per key; a key's first request fills
    its slot from the slot of its canonical form (direction bits of
    unassumed sites cleared), distilling the assumptions in site order
    only if that slot is empty too.  So keys that differ only in an
    unassumed site's direction bit return the same version, and after
    the first request a lookup allocates nothing.  The table is shared
    by every caller of this region model: a region model must not be
    used from two domains at once.
    @raise Invalid_argument if [key] is not below [4^k], [k] the
    number of {!site_ids}. *)
