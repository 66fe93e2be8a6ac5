module Types = Rs_core.Types

type t = {
  samples : int;
  histogram : Rs_util.Histogram.t;
  fraction_below_30pct : float;
  fraction_reversed : float;
}

type watch = { direction : bool; mutable seen : int; mutable in_dir : int }

(* Executions watched after an eviction, as in the paper. *)
let horizon = 64

let run ?trace pop config params =
  let n = Rs_behavior.Population.size pop in
  let watches : watch option array = Array.make n None in
  let sampled = Array.make n false in
  let finished = ref [] in
  let finish w = finished := (float_of_int w.in_dir /. float_of_int w.seen) :: !finished in
  let directions = Array.make n false in
  let on_transition (tr : Types.transition) =
    (* Only a branch's first eviction is watched: the paper's Figure 6
       reports fractions of static branches, not of evictions. *)
    match tr.kind with
    | Types.Evicted when not sampled.(tr.branch) ->
      sampled.(tr.branch) <- true;
      watches.(tr.branch) <- Some { direction = directions.(tr.branch); seen = 0; in_dir = 0 }
    | _ -> ()
  in
  (* Per event the observer touches only the two flat arrays — watch
     records are allocated per eviction, orders of magnitude rarer than
     events. *)
  let observer ~branch ~taken ~instr:_ ~code =
    (* Track the direction the deployed code speculates so the watch knows
       the pre-eviction direction even after the controller moved on. *)
    if code land 1 = 1 then directions.(branch) <- code land 2 = 2;
    match Array.unsafe_get watches branch with
    | None -> ()
    | Some w ->
      if taken = w.direction then w.in_dir <- w.in_dir + 1;
      w.seen <- w.seen + 1;
      if w.seen >= horizon then begin
        finish w;
        watches.(branch) <- None
      end
  in
  let _result = Engine.run ~observer ~on_transition ?trace pop config params in
  Array.iter (function Some w when w.seen >= 16 -> finish w | _ -> ()) watches;
  let histogram = Rs_util.Histogram.create ~bins:20 () in
  List.iter (Rs_util.Histogram.add histogram) !finished;
  let samples = List.length !finished in
  let count p = List.length (List.filter p !finished) in
  let frac p = if samples = 0 then 0.0 else float_of_int (count p) /. float_of_int samples in
  {
    samples;
    histogram;
    fraction_below_30pct = frac (fun f -> f < 0.30);
    fraction_reversed = frac (fun f -> f < 0.05);
  }
