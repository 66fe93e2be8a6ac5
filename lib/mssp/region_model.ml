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

type version = { lengths : int array; violations : int array; assumed_mask : int }
type versions = version option array

type t = {
  region : Synth.t;
  site_ids : int array;
  orig_lengths : int array;
  orig_branches : int array array;
  (* Every distilled version built on this region, across runs, indexed
     by decision key (2 bits per site, see [version]): 4^k slots. *)
  versions : versions;
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
  if k > 8 then invalid_arg "Region_model.create: region has more than 8 sites";
  let n = 1 lsl k in
  let orig_lengths = Array.make n 0 in
  let orig_branches = Array.make n [||] in
  for v = 0 to n - 1 do
    let branches = ref [] in
    let hook ~site ~taken = branches := pack_branch region site taken :: !branches in
    orig_lengths.(v) <- measure ~hook region region.Synth.prog v;
    orig_branches.(v) <- Array.of_list (List.rev !branches)
  done;
  {
    region;
    site_ids = region.Synth.site_ids;
    orig_lengths;
    orig_branches;
    versions = Array.make (1 lsl (2 * k)) None;
  }

let site_ids t = t.site_ids

let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1)

(* Distill the version for [key]: site [j] is assumed iff bit [2j] is
   set, in direction bit [2j+1]. *)
let build t key =
  let k = Array.length t.site_ids in
  let branches = ref [] and mask = ref 0 and bits = ref 0 in
  for j = k - 1 downto 0 do
    let code = (key lsr (2 * j)) land 3 in
    if code land 1 <> 0 then begin
      let taken = code land 2 <> 0 in
      branches := (t.site_ids.(j), taken) :: !branches;
      mask := !mask lor (1 lsl j);
      if taken then bits := !bits lor (1 lsl j)
    end
  done;
  let assumptions = Assumptions.branches !branches in
  let result = Rs_distill.Distill.distill t.region.Synth.prog assumptions in
  let lengths = Array.init (1 lsl k) (measure t.region result.distilled) in
  let mask = !mask and bits = !bits in
  let violations = Array.init (1 lsl k) (fun o -> popcount ((o land mask) lxor bits)) in
  { lengths; violations; assumed_mask = mask }

let version t ~key =
  match t.versions.(key) with
  | Some v -> v
  | None ->
    let v = build t key in
    t.versions.(key) <- Some v;
    v
