type config = { seed : int; instr_per_branch : float; length : int }

let total_instructions config =
  int_of_float (float_of_int config.length *. config.instr_per_branch)

(* Entry points share one generator but report their own name on a bad
   config, so the error points at the call the user actually made. *)
let validate ~caller config =
  if config.length <= 0 then invalid_arg (caller ^ ": length must be positive");
  if config.instr_per_branch < 1.0 then
    invalid_arg (caller ^ ": instr_per_branch must be >= 1")

(* The generator loop.  The consumer receives plain integers and a bool,
   so a pass over it (the chunk packer of [Trace_store]) allocates nothing
   per event: the fractional-instruction carry lives in a float
   array cell (a [float ref] would box a fresh float per store on the
   non-flambda compiler), and the alias draw and behaviour sample are
   allocation-free (see Population.Alias.draw / Behavior.sample). *)
let iter_raw pop config f =
  validate ~caller:"Stream.iter_raw" config;
  let root = Rs_util.Prng.create config.seed in
  let pick_rng = Rs_util.Prng.split root in
  (* Each branch owns a private outcome stream so that its sampled
     behaviour does not depend on how other branches interleave. *)
  let branch_rngs = Array.init (Population.size pop) (fun _ -> Rs_util.Prng.split root) in
  let sampler = Population.Alias.prepare pop in
  let exec = Array.make (Population.size pop) 0 in
  (* Deterministic fractional instruction advance: base + carry keeps the
     long-run rate exactly [instr_per_branch] without an extra RNG draw. *)
  let base = int_of_float config.instr_per_branch in
  let frac = config.instr_per_branch -. float_of_int base in
  let carry = Array.make 1 0.0 in
  let instr = ref 0 in
  for _ = 1 to config.length do
    let b = Population.Alias.draw sampler pick_rng in
    let step =
      let c = Array.unsafe_get carry 0 +. frac in
      if c >= 1.0 then begin
        Array.unsafe_set carry 0 (c -. 1.0);
        base + 1
      end
      else begin
        Array.unsafe_set carry 0 c;
        base
      end
    in
    instr := !instr + step;
    let exec_index = Array.unsafe_get exec b in
    Array.unsafe_set exec b (exec_index + 1);
    let spec = Population.spec pop b in
    let taken =
      Behavior.sample spec.behavior ~rng:(Array.unsafe_get branch_rngs b) ~exec_index
        ~instr:!instr
    in
    f ~branch:b ~taken ~exec_index ~instr:!instr
  done;
  exec
