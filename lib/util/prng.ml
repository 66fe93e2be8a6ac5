(* xorshift64* on OCaml's native 63-bit integers.

   The generator state and all arithmetic stay in immediate (unboxed)
   ints: the whole library draws hundreds of millions of samples per run,
   and a boxed Int64 implementation costs an allocation per draw.  The
   63-bit variant passes the statistical needs here (uniform draws and
   Bernoulli thinning); streams are split by re-seeding a child from the
   parent's output through a splitmix-style scramble. *)

type t = { mutable s : int }

let mult = 0x2545F4914F6CDD1D (* xorshift* multiplier, fits in 62 bits *)

(* splitmix-style scramble used for seeding: decorrelates consecutive
   seeds and guarantees a non-zero state *)
let scramble z =
  let z = (z lxor (z lsr 30)) * 0x16A3B36A82D1C1B5 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  let z = z lxor (z lsr 31) in
  if z = 0 then 0x9E3779B97F4A7C1 else z

let create seed = { s = scramble (seed + 0x1F123BB5159A55E5) }

let copy t = { s = t.s }

let next t =
  let s = t.s in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  let s = if s = 0 then 0x9E3779B97F4A7C1 else s in
  t.s <- s;
  s * mult

let bits62 t = next t land max_int

let bits64 t = Int64.of_int (next t)

let split t = { s = scramble (next t + 0x61C8864680B583EB) }

(* Top-level recursion, not a local closure: the generators below sit in
   per-event hot loops and a captured [go] would cost an allocation per
   draw on the non-flambda compiler. *)
let rec int_reject t bound =
  (* rejection sampling removes the modulo bias *)
  let r = bits62 t in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_reject t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  int_reject t bound

let two53 = 9007199254740992.0

let unit_bits t = bits62 t lsr 9

let float t bound =
  (* 53 random bits mapped to [0,1) *)
  float_of_int (unit_bits t) /. two53 *. bound

let bool t = next t land 1 <> 0

(* [float_of_int r /. 2^53 *. 1.0 < p] with both operands exact: dividing
   an integer below 2^53 by 2^53 is exact, and so is multiplying [p] by
   2^53 (a pure exponent shift, no overflow for finite p of this
   magnitude), so the two comparisons decide identically bit-for-bit.
   The rewritten form keeps every float temporary inside one function
   body, where the non-flambda compiler leaves them unboxed. *)
let below t p = float_of_int (unit_bits t) < p *. two53

let bernoulli t p =
  if p >= 1.0 then true
  else if p <= 0.0 then false
  else below t p
