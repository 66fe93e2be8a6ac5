module Prng = Rs_util.Prng

type t =
  | Constant of int
  | Noisy_constant of { value : int; other : int; p_other : float }
  | Sticky of { values : int array; p_stay : float }
  | Counter of { start : int; stride : int }
  | Phase_constant of { first : int; second : int; switch_at : int }

let initial = function
  | Constant v -> v
  | Noisy_constant { value; _ } -> value
  | Sticky { values; _ } -> if Array.length values = 0 then 0 else values.(0)
  | Counter { start; _ } -> start
  | Phase_constant { first; _ } -> first

let next t ~rng ~exec_index ~prev =
  match t with
  | Constant v -> v
  | Noisy_constant { value; other; p_other } ->
    if Prng.bernoulli rng p_other then other else value
  | Sticky { values; p_stay } ->
    if Array.length values = 0 then prev
    else if Prng.bernoulli rng p_stay then prev
    else values.(Prng.int rng (Array.length values))
  | Counter { start; stride } -> start + (exec_index * stride)
  | Phase_constant { first; second; switch_at } ->
    if exec_index < switch_at then first else second

let pp ppf = function
  | Constant v -> Format.fprintf ppf "constant(%d)" v
  | Noisy_constant { value; p_other; _ } ->
    Format.fprintf ppf "noisy-constant(%d, p_other=%.4f)" value p_other
  | Sticky { values; p_stay } ->
    Format.fprintf ppf "sticky(%d values, p_stay=%.2f)" (Array.length values) p_stay
  | Counter { stride; _ } -> Format.fprintf ppf "counter(stride=%d)" stride
  | Phase_constant { first; second; switch_at } ->
    Format.fprintf ppf "phase-constant(%d->%d at %d)" first second switch_at
