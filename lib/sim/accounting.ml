module Reactive = Rs_core.Reactive

type row = {
  touched : int;
  entered_biased : int;
  evicted : int;
  total_evictions : int;
  total_selections : int;
  capped : int;
  correct_rate : float;
  incorrect_rate : float;
  misspec_distance : float;
}

let of_result (r : Engine.result) =
  let c = r.controller in
  let touched = ref 0 in
  let entered = ref 0 in
  let evicted = ref 0 in
  let total_ev = ref 0 in
  let total_sel = ref 0 in
  let capped = ref 0 in
  for b = 0 to Reactive.n_branches c - 1 do
    if Reactive.touched c b then incr touched;
    let sel = Reactive.selections c b in
    if sel > 0 then incr entered;
    total_sel := !total_sel + sel;
    let ev = Reactive.evictions c b in
    if ev > 0 then incr evicted;
    total_ev := !total_ev + ev;
    if Reactive.capped c b then incr capped
  done;
  {
    touched = !touched;
    entered_biased = !entered;
    evicted = !evicted;
    total_evictions = !total_ev;
    total_selections = !total_sel;
    capped = !capped;
    correct_rate = Engine.correct_rate r;
    incorrect_rate = Engine.incorrect_rate r;
    misspec_distance = Engine.misspec_distance r;
  }

let average rows =
  let n = float_of_int (List.length rows) in
  if rows = [] then invalid_arg "Accounting.average: empty list";
  let favg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. n in
  let iavg f = int_of_float (favg (fun r -> float_of_int (f r))) in
  (* A benchmark with no misspeculations contributes its run length as a
     finite stand-in for an unbounded distance. *)
  let dist r = if Float.is_finite r.misspec_distance then r.misspec_distance else 0.0 in
  {
    touched = iavg (fun r -> r.touched);
    entered_biased = iavg (fun r -> r.entered_biased);
    evicted = iavg (fun r -> r.evicted);
    total_evictions = iavg (fun r -> r.total_evictions);
    total_selections = iavg (fun r -> r.total_selections);
    capped = iavg (fun r -> r.capped);
    correct_rate = favg (fun r -> r.correct_rate);
    incorrect_rate = favg (fun r -> r.incorrect_rate);
    misspec_distance = favg dist;
  }
