(** MSSP workloads: regions plus per-site branch behaviours.

    Section 4 of the paper runs 200M-instruction checkpoints of the 12
    SPECint benchmarks through the MSSP CMP.  Here each benchmark is a
    set of synthetic hot regions (see {!Rs_ir.Synth}) whose branch sites
    carry behaviours echoing the benchmark's character in the abstract
    study: mostly strongly-biased sites, a benchmark-specific number of
    sites that change behaviour mid-run (these are what separates closed-
    from open-loop control), and some unbiased sites.  eon, gcc, perl and
    twolf get no changing sites — the paper notes they show limited
    sensitivity "because few branches need re-characterization at this
    program point". *)

type t = {
  name : string;
  n_regions : int;
  sites_per_region : int;
  changing_sites : int;  (** Sites that reverse direction mid-run. *)
  burst_sites : int;  (** Sites with misspeculation bursts. *)
  unbiased_fraction : float;
  tasks : int;  (** Task instances per run. *)
}

val all : t list
(** The 12 benchmarks. *)

val find : string -> t

type instance = {
  spec : t;
  regions : Region_model.t array;
  region_weights : float array;
  behaviors : Rs_behavior.Behavior.t array;  (** Indexed by site id. *)
  n_sites : int;
}

val instantiate : t -> seed:int -> instance
(** Build the regions and assign site behaviours, deterministically in
    the seed.
    @raise Invalid_argument if [sites_per_region] exceeds 8 (see
    {!Region_model.create}). *)
