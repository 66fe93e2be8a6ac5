(* The counters are 2-bit saturating up/down counters (0..3, predict
   taken at 2 and above, initially weakly not-taken), stored flat in one
   int array so a prediction touches a single word and the table is one
   allocation instead of one record per entry. *)
type t = { counters : int array; mask : int; mutable history : int }

let create ~bits =
  if bits <= 0 || bits > 24 then invalid_arg "Gshare.create: bits out of range";
  { counters = Array.make (1 lsl bits) 1; mask = (1 lsl bits) - 1; history = 0 }

(* A counter's successor, at [(c lsl 1) lor taken]: the saturating step
   as a table read, so the update has no branch on the outcome. *)
let next_counter = [| 0; 1; 0; 2; 1; 3; 2; 3 |]

(* Every write is masked by [active]: [x lxor ((x lxor y) land -active)]
   is [y] when [active = 1] and [x] when it is 0. *)
let step t ~pc ~taken ~active =
  let on = -active in
  let h = t.history in
  let idx = (pc lxor h) land t.mask in
  let c = Array.unsafe_get t.counters idx in
  let c' = Array.unsafe_get next_counter ((c lsl 1) lor taken) in
  Array.unsafe_set t.counters idx (c lxor ((c lxor c') land on));
  t.history <- h lxor ((h lxor (((h lsl 1) lor taken) land t.mask)) land on);
  ((c lsr 1) lxor taken) land active

let counter t i = t.counters.(i)
let history t = t.history
