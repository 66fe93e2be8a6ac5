type t = { mutable value : int; max : int }

let create ?(initial = 0) ~max () =
  if max <= 0 then invalid_arg "Sat_counter.create: max must be positive";
  if initial < 0 || initial > max then invalid_arg "Sat_counter.create: initial out of range";
  { value = initial; max }

let value t = t.value
let max_value t = t.max

let add t delta =
  let v = t.value + delta in
  t.value <- (if v < 0 then 0 else if v > t.max then t.max else v)

let is_saturated t = t.value = t.max
let reset t = t.value <- 0
