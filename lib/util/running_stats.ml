type t = {
  mutable n : int;
  mutable mean : float;
  mutable min : float;
  mutable max : float;
  mutable sum : float;
}

let create () = { n = 0; mean = 0.0; min = infinity; max = neg_infinity; sum = 0.0 }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.sum <- t.sum +. x

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.mean
let min t = t.min
let max t = t.max
let sum t = t.sum

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    {
      n;
      mean;
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
      sum = a.sum +. b.sum;
    }
  end
