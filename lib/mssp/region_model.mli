(** Hot regions with precomputed path lengths.

    The timing simulator never interprets instructions on the critical
    path: for each region it precomputes, by interpretation, the dynamic
    path length of the original code for every outcome vector of its [k]
    branch sites (a [2^k] table), and lazily does the same for each
    distilled version the dynamic optimizer produces.  Task timing then
    reduces to table lookups.  A version is a pure function of the region
    and its assumptions, so each region model keeps one table of
    versions: a version is distilled the first time a run on the model
    deploys its decisions — which is exactly when a real system would
    re-optimize.  [Rs_experiments.Cache.mssp] instantiates a fresh
    workload per miss, so there the table is shared within one run;
    only bench's primed [mssp-run] kernel, perfbench's MSSP probe and
    tests replay one instance more than once. *)

type version = private {
  lengths : int array;
      (** Dynamic instructions of the distilled code under each outcome
          vector (bit [j] = site [j], indexing [site_ids], taken).
          Removed branches ignore the real outcome (they were
          deleted). *)
  violations : int array;
      (** How many assumed sites each outcome vector contradicts; the
          version is violated when this is nonzero.  The paper's Section
          4.3 observation is that several violations often fall inside
          one task, costing a single task squash. *)
  assumed_mask : int;
      (** Bit [j] is set iff site [j] is assumed — its branch was
          removed from the distilled code. *)
}
(** One distilled version of the region, read by field in the timing
    model's per-task loop. *)

type versions
(** The region's table of distilled versions, filled by {!version}. *)

type t = private {
  region : Rs_ir.Synth.t;
  site_ids : int array;  (** The region's input-controlled sites, in chain order. *)
  orig_lengths : int array;
      (** Dynamic instructions of the original code for each outcome
          vector (bit [j] = site [j] taken). *)
  orig_branches : int array array;
      (** For each outcome vector, the branches actually executed on
          that path, in order, each packed into one int: [site lsl 6]
          (the branch's site id), [j lsl 1] (a 5-bit field: the site's
          index in [site_ids], which is its bit in outcome vectors and
          version masks, or the number of sites for a loop site no
          version can assume) and bit 0, the outcome (1 = taken).
          Precomputed once per outcome vector: the arrays are shared and
          must not be mutated. *)
  versions : versions;
}

val create : Rs_ir.Synth.t -> t
(** @raise Invalid_argument if the region has more than 8 sites: the
    version table holds [4^k] slots. *)

val site_ids : t -> int array
(** [t.site_ids]. *)

val version : t -> key:int -> version
(** The version for the deployed decisions packed in [key], 2 bits per
    site: bit [2j] set iff site [j] (indexing [site_ids]) is assumed,
    bit [2j+1] its assumed direction (the {!Rs_core.Reactive.deployed_code}
    encoding).  The table has a slot per key; a key's first request
    distills the assumptions in site order into its slot, and later
    requests return that record without allocating.  The table is shared
    by every caller of this region model: a region model must not be
    used from two domains at once.
    @raise Invalid_argument if [key] is not below [4^k], [k] the
    number of {!site_ids}. *)
