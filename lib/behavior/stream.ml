module Prng = Rs_util.Prng

type config = { seed : int; instr_per_branch : float; length : int }

let total_instructions config =
  int_of_float (float_of_int config.length *. config.instr_per_branch)

(* The event word: one OCaml immediate int per event —

     bit 0       taken
     bits 1-20   instruction delta from the previous event (< 2^20)
     bits 21-61  branch id *)

let max_delta = (1 lsl 20) - 1
let branch_shift = 21

(* Entry points share one generator but report their own name on a bad
   config, so the error points at the call the user actually made.  An
   event's instruction delta is at most [ceil instr_per_branch], so
   bounding that here, before anything is allocated, is what lets the
   generator pack events unchecked. *)
let validate ~caller config =
  if config.length <= 0 then invalid_arg (caller ^ ": length must be positive");
  if not (Float.is_finite config.instr_per_branch) then
    invalid_arg (caller ^ ": instr_per_branch must be finite");
  if config.instr_per_branch < 1.0 then
    invalid_arg (caller ^ ": instr_per_branch must be >= 1");
  if Float.ceil config.instr_per_branch > float_of_int max_delta then
    invalid_arg (caller ^ ": instruction delta does not fit in 20 bits")

let[@inline] pack ~branch ~delta ~taken =
  (branch lsl branch_shift) lor (delta lsl 1) lor Bool.to_int taken

let packed_branch w = w lsr branch_shift
let packed_taken w = w land 1 = 1
let packed_delta w = (w lsr 1) land max_delta

(* The generator's per-event draws live in this one module, next to its
   loop: across the [-opaque] module boundaries of the dev build every
   call is a real one, and each would cost the loop a few percent.

   So do literal copies of {!Prng}'s per-draw arithmetic on raw states
   — [step], the 62-bit output, [unit_of] and the rejecting [int_of] —
   which closure conversion inlines into the loop: calls into [Prng]
   cost the generator about six indirect calls per event.  The
   generator oracle in the tests draws through [Prng]'s own API, so
   the copies cannot drift silently. *)

let[@inline] step s =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  if s = 0 then 0x9E3779B97F4A7C1 else s

let[@inline] bits62_of s = (s * 0x2545F4914F6CDD1D) land max_int
let[@inline] unit_of s = bits62_of s lsr 9

let[@inline] int_of s bound =
  let r = bits62_of s in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then -1 else v

module Alias = struct
  (* Entry [i]'s acceptance threshold ({!Prng.threshold} of its
     probability) at [2i], its alias at [2i + 1]. *)
  type t = int array

  (* Vose's alias method: linear-time table construction, O(1) draws.
     The two work lists are FIFO rings over [n]-slot int arrays (an index
     sits in at most one of them at a time) and the loops are monomorphic,
     so construction allocates its four arrays and, per paired entry, only
     the boxed float handed to [Prng.threshold]. *)
  let of_weights weights =
    let n = Array.length weights in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. weights.(i)
    done;
    let scaled = Array.make n 0.0 in
    let table = Array.make (2 * n) 0 in
    (* each ring: slots, head position, length *)
    let small = Array.make n 0 and large = Array.make n 0 in
    let sh = ref 0 and sn = ref 0 and lh = ref 0 and ln = ref 0 in
    for i = 0 to n - 1 do
      let p = weights.(i) *. float_of_int n /. !total in
      scaled.(i) <- p;
      if p < 1.0 then begin
        small.(!sn) <- i;
        incr sn
      end
      else begin
        large.(!ln) <- i;
        incr ln
      end
    done;
    while !sn > 0 && !ln > 0 do
      let s = small.(!sh) in
      sh := (!sh + 1) mod n;
      decr sn;
      let l = large.(!lh) in
      lh := (!lh + 1) mod n;
      decr ln;
      table.(2 * s) <- Prng.threshold scaled.(s);
      table.((2 * s) + 1) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
      if scaled.(l) < 1.0 then begin
        small.((!sh + !sn) mod n) <- l;
        incr sn
      end
      else begin
        large.((!lh + !ln) mod n) <- l;
        incr ln
      end
    done;
    (* what is left keeps itself, with probability one *)
    let keep ring head len =
      for k = 0 to len - 1 do
        let i = ring.((head + k) mod n) in
        table.(2 * i) <- Prng.threshold 1.0;
        table.((2 * i) + 1) <- i
      done
    in
    keep small !sh !sn;
    keep large !lh !ln;
    table

  (* [if u < threshold then i else alias] without the branch, whose
     outcome is the random acceptance test: for [u] in [0, 2^53) and
     [threshold] in [-1, max_int], [u - threshold] cannot overflow, so
     its sign bit, smeared by [asr 62], is exactly [u < threshold]. *)
  let[@inline] pick ~i ~alias ~threshold u =
    alias lxor ((i lxor alias) land ((u - threshold) asr 62))

  (* Entry [i] drawn, with the uniform bits [u] of the acceptance test
     [Prng.float rng 1.0 < prob.(i)] on integers. *)
  let[@inline] choose t i u =
    pick ~i ~alias:(Array.unsafe_get t ((2 * i) + 1)) ~threshold:(Array.unsafe_get t (2 * i)) u

  let draw t rng =
    let i = Prng.int rng (Array.length t lsr 1) in
    choose t i (Prng.unit_bits rng)
end

module Sampler = struct
  (* Branch [b]'s record is [state.(stride * b)] onwards: its generator's
     raw state, its execution count, the threshold of its current
     probability, and the execution index and instruction count at which
     that probability is next looked up.  A zero change point makes the
     first execution look it up. *)
  type t = { models : Behavior.t array; state : int array }

  let stride = 5

  let create models root =
    let state = Array.make (stride * Array.length models) 0 in
    Array.iteri (fun b _ -> state.(stride * b) <- Prng.state (Prng.split root)) models;
    { models; state }

  let refresh s b ~exec_index ~instr =
    let m = s.models.(b) and o = stride * b in
    s.state.(o + 2) <- Prng.threshold (Behavior.p_taken m ~exec_index ~instr);
    s.state.(o + 3) <- Behavior.exec_change m ~exec_index;
    s.state.(o + 4) <- Behavior.instr_change m ~instr

  (* The outcome as a bit, with no branch on anything random.  The
     thresholds [Prng.bernoulli] decides without a draw, -1 (p <= 0)
     and [max_int] (p >= 1), must leave the generator where it is, so
     the stepped state is stored under a mask that is all ones only
     for a threshold in [0, max_int).  The outcome needs no mask: as
     in {!Alias.pick}, [unit - threshold] cannot overflow and its sign
     is [unit < threshold], which is false at -1 and true at [max_int]
     whatever [unit] is. *)
  let[@inline] next_bit s b ~instr =
    let st = s.state and o = stride * b in
    (* the one checked read: [o + 4] in bounds means [b] is a branch *)
    let instr_at = st.(o + 4) in
    let exec_index = Array.unsafe_get st (o + 1) in
    Array.unsafe_set st (o + 1) (exec_index + 1);
    if exec_index >= Array.unsafe_get st (o + 3) || instr >= instr_at then
      refresh s b ~exec_index ~instr;
    let th = Array.unsafe_get st (o + 2) in
    let old = Array.unsafe_get st o in
    let r = step old in
    let draws = (lnot th land (th - max_int)) asr 62 in
    Array.unsafe_set st o (old lxor ((old lxor r) land draws));
    ((unit_of r - th) asr 62) land 1

  let next s b ~instr = next_bit s b ~instr = 1

  let rng_state s b = s.state.(stride * b)
end

let generate pop config ~buf ~emit =
  let root = Prng.create config.seed in
  (* the branch draws' generator state, in a local (a register) rather
     than in a [Prng.t]'s mutable field *)
  let s = ref (Prng.state (Prng.split root)) in
  (* Each branch owns a private outcome stream so that its sampled
     behaviour does not depend on how other branches interleave. *)
  let n = Population.size pop in
  let outcomes = Sampler.create (Array.init n (fun b -> (Population.spec pop b).behavior)) root in
  let alias = Alias.of_weights (Array.init n (fun b -> (Population.spec pop b).weight)) in
  (* Deterministic fractional instruction advance: base + carry keeps the
     long-run rate exactly [instr_per_branch] without an extra RNG draw.
     The carry lives in a float array cell: a [float ref] would box a
     fresh float per store on the non-flambda compiler. *)
  let base = int_of_float config.instr_per_branch in
  let frac = config.instr_per_branch -. float_of_int base in
  let carry = Array.make 1 0.0 in
  let instr = ref 0 and buf = ref buf and pos = ref 0 in
  for _ = 1 to config.length do
    let i = ref (-1) in
    while !i < 0 do
      s := step !s;
      i := int_of !s n
    done;
    s := step !s;
    let branch = Alias.choose alias !i (unit_of !s) in
    let delta =
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
    instr := !instr + delta;
    let taken = Sampler.next_bit outcomes branch ~instr:!instr in
    Array.unsafe_set !buf !pos ((branch lsl branch_shift) lor (delta lsl 1) lor taken);
    incr pos;
    if !pos = Array.length !buf then begin
      buf := emit !buf !pos;
      pos := 0
    end
  done;
  if !pos > 0 then ignore (emit !buf !pos : int array)
