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

let state t = t.s

let step s =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  if s = 0 then 0x9E3779B97F4A7C1 else s

(* The raw outputs a stepped state yields. *)
let bits62_of s = (s * mult) land max_int
let unit_of s = bits62_of s lsr 9

(* rejection sampling removes the modulo bias *)
let int_of s bound =
  let r = bits62_of s in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then -1 else v

let advance t =
  let s = step t.s in
  t.s <- s;
  s

let next t = advance t * mult

let bits62 t = bits62_of (advance t)

let split t = { s = scramble (next t + 0x61C8864680B583EB) }

(* Top-level recursion, not a local closure: the generators below sit in
   per-event hot loops and a captured [go] would cost an allocation per
   draw on the non-flambda compiler. *)
let rec int_reject t bound =
  let v = int_of (advance t) bound in
  if v < 0 then int_reject t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  int_reject t bound

let two53 = 9007199254740992.0

let unit_bits t = unit_of (advance t)

(* For an integer [u] below 2^53, [float_of_int u /. two53 < p] holds
   exactly when [u < ceil (p *. two53)]: dividing such an integer by
   2^53 is exact, and so is multiplying [p] by it (an exponent shift).
   Comparing integers keeps floats out of per-draw code, where the
   non-flambda compiler would box them across calls. *)
let threshold p =
  if p >= 1.0 then max_int
  else if p <= 0.0 then -1
  else if p > 0.0 then int_of_float (Float.ceil (p *. two53))
  else 0

let float t bound =
  (* 53 random bits mapped to [0,1) *)
  float_of_int (unit_bits t) /. two53 *. bound

let bool t = next t land 1 <> 0

let bernoulli t p =
  if p >= 1.0 then true
  else if p <= 0.0 then false
  else float_of_int (unit_bits t) < p *. two53
