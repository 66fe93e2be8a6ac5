type t = { lo : float; hi : float; width : float; counts : int array; mutable total : int }

let create ?(lo = 0.0) ?(hi = 1.0) ~bins () =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  { lo; hi; width = (hi -. lo) /. float_of_int bins; counts = Array.make bins 0; total = 0 }

let bins t = Array.length t.counts

let bin_of t x =
  let i = int_of_float ((x -. t.lo) /. t.width) in
  if i < 0 then 0 else if i >= bins t then bins t - 1 else i

let add_many t x k =
  let i = bin_of t x in
  t.counts.(i) <- t.counts.(i) + k;
  t.total <- t.total + k

let add t x = add_many t x 1
let count t = t.total

let bin_count t i =
  if i < 0 || i >= bins t then invalid_arg "Histogram.bin_count: index out of range";
  t.counts.(i)

let bin_bounds t i =
  if i < 0 || i >= bins t then invalid_arg "Histogram.bin_bounds: index out of range";
  (t.lo +. (float_of_int i *. t.width), t.lo +. (float_of_int (i + 1) *. t.width))

let merge a b =
  if a.lo <> b.lo || a.hi <> b.hi || bins a <> bins b then
    invalid_arg "Histogram.merge: histograms must share lo, hi and bin count";
  {
    a with
    counts = Array.init (bins a) (fun i -> a.counts.(i) + b.counts.(i));
    total = a.total + b.total;
  }

let to_list t = List.init (bins t) (fun i -> (bin_bounds t i, t.counts.(i)))
