module Synth = Rs_ir.Synth
module Interp = Rs_ir.Interp
module Assumptions = Rs_distill.Assumptions

let outcomes_array k packed = Array.init k (fun j -> packed land (1 lsl j) <> 0)

(* Interpret [prog] with the region's input cells set from the packed
   outcome vector, returning its dynamic length; [hook] sees every
   executed branch, in order. *)
let measure ?hook (region : Synth.t) prog packed =
  let mem = Array.make region.mem_size 0 in
  let k = Array.length region.site_ids in
  Synth.set_inputs region ~mem (outcomes_array k packed);
  (Interp.run ?hook prog ~mem).dyn_instrs

module Version = struct
  type v = {
    lengths : int array;
    violated_mask : int;  (** Bits of assumed sites. *)
    assumed_bits : int;  (** Expected values of those bits. *)
  }

  let length v ~outcomes = v.lengths.(outcomes)
  let assumed_mask v = v.violated_mask
  let violated v ~outcomes = outcomes land v.violated_mask <> v.assumed_bits

  let violations v ~outcomes =
    let diff = (outcomes land v.violated_mask) lxor v.assumed_bits in
    let rec popcount x acc = if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1)) in
    popcount diff 0
end

type t = {
  region : Synth.t;
  k : int;
  orig_lengths : int array;
  orig_branches : int array array;
  (* Every distilled version built on this region, across runs, keyed by
     its (assumed-site mask, assumed directions) pair packed into one int:
     [(mask lsl k) lor bits]. *)
  versions : (int, Version.v) Hashtbl.t;
}

(* Index of [site] in [site_ids], or [Array.length site_ids] (a bit no
   version mask ever sets) for a site outside them, such as a loop
   branch. *)
let site_index site_ids site =
  let k = Array.length site_ids in
  let rec go j = if j >= k || site_ids.(j) = site then j else go (j + 1) in
  go 0

let pack_branch (region : Synth.t) site taken =
  (site lsl 6) lor (site_index region.site_ids site lsl 1) lor if taken then 1 else 0

let create region =
  let k = Array.length region.Synth.site_ids in
  if k > 16 then invalid_arg "Region_model.create: too many sites for table precomputation";
  let n = 1 lsl k in
  let orig_lengths = Array.make n 0 in
  let orig_branches = Array.make n [||] in
  for v = 0 to n - 1 do
    let branches = ref [] in
    let hook ~site ~taken = branches := pack_branch region site taken :: !branches in
    orig_lengths.(v) <- measure ~hook region region.Synth.prog v;
    orig_branches.(v) <- Array.of_list (List.rev !branches)
  done;
  { region; k; orig_lengths; orig_branches; versions = Hashtbl.create 8 }

let n_sites t = t.k
let site_ids t = t.region.Synth.site_ids

let original_length t ~outcomes = t.orig_lengths.(outcomes)
let original_branches t ~outcomes = t.orig_branches.(outcomes)

let build t ~mask ~bits =
  let branches = ref [] in
  for j = t.k - 1 downto 0 do
    if mask land (1 lsl j) <> 0 then
      branches := (t.region.Synth.site_ids.(j), bits land (1 lsl j) <> 0) :: !branches
  done;
  let assumptions = Assumptions.branches !branches in
  let result = Rs_distill.Distill.distill t.region.Synth.prog assumptions in
  let lengths = Array.init (1 lsl t.k) (measure t.region result.distilled) in
  { Version.lengths; violated_mask = mask; assumed_bits = bits }

let version_bits t ~mask ~bits =
  let full = (1 lsl t.k) - 1 in
  if mask land lnot full <> 0 then invalid_arg "Region_model.version_bits: mask out of range";
  let bits = bits land mask in
  let key = (mask lsl t.k) lor bits in
  match Hashtbl.find_opt t.versions key with
  | Some v -> v
  | None ->
    let v = build t ~mask ~bits in
    Hashtbl.add t.versions key v;
    v

let recompilations t = Hashtbl.length t.versions
