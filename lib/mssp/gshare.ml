(* The counters are 2-bit saturating up/down counters (0..3, predict
   taken at 2 and above, initially weakly not-taken), stored flat in one
   int array so a prediction touches a single word and the table is one
   allocation instead of one record per entry. *)
type t = {
  counters : int array;
  mask : int;
  mutable history : int;
  mutable predictions : int;
  mutable correct : int;
}

let create ~bits =
  if bits <= 0 || bits > 24 then invalid_arg "Gshare.create: bits out of range";
  {
    counters = Array.make (1 lsl bits) 1;
    mask = (1 lsl bits) - 1;
    history = 0;
    predictions = 0;
    correct = 0;
  }

let predict_and_update t ~pc ~taken =
  let idx = (pc lxor t.history) land t.mask in
  let c = Array.unsafe_get t.counters idx in
  let prediction = c >= 2 in
  Array.unsafe_set t.counters idx
    (if taken then (if c < 3 then c + 1 else 3) else if c > 0 then c - 1 else 0);
  t.history <- ((t.history lsl 1) lor (if taken then 1 else 0)) land t.mask;
  t.predictions <- t.predictions + 1;
  let ok = prediction = taken in
  if ok then t.correct <- t.correct + 1;
  ok

let accuracy t =
  if t.predictions = 0 then 1.0 else float_of_int t.correct /. float_of_int t.predictions
