module Types = Rs_core.Types

type t = {
  samples : int;
  histogram : Rs_util.Histogram.t;
  fraction_below_30pct : float;
  fraction_reversed : float;
}

(* Executions watched after an eviction, as in the paper. *)
let horizon = 64

(* Each branch's watch state in one word of a flat int array, so the
   observer touches one word per event and a run allocates one array:

     bit 0      the direction the deployed code last speculated
     bit 1      the branch's first eviction has been watched
     bit 2      a watch is running
     bit 3      the watch's direction: bit 0 at the eviction
     bits 4-11  executions watched (below [horizon])
     bits 12+   of those, executions in the watch's direction *)
let sampled = 2
let watching = 4
let seen_shift = 4
let in_dir_shift = 12

let[@inline] seen w = (w lsr seen_shift) land 0xff
let[@inline] in_dir w = w lsr in_dir_shift

let run ?trace pop config params =
  let n = Rs_behavior.Population.size pop in
  let st = Array.make n 0 in
  let finished = ref [] in
  let finish w = finished := (float_of_int (in_dir w) /. float_of_int (seen w)) :: !finished in
  let on_transition (tr : Types.transition) =
    (* Only a branch's first eviction is watched: the paper's Figure 6
       reports fractions of static branches, not of evictions. *)
    let w = st.(tr.branch) in
    match tr.kind with
    | Types.Evicted when w land sampled = 0 ->
      st.(tr.branch) <- (w land 1) lor sampled lor watching lor ((w land 1) lsl 3)
    | _ -> ()
  in
  let observer ~branch ~taken ~instr:_ ~code =
    let w = Array.unsafe_get st branch in
    (* Track the direction the deployed code speculates so the watch knows
       the pre-eviction direction even after the controller moved on. *)
    let w = if code land 1 = 1 then (w land lnot 1) lor (code lsr 1) else w in
    if w land watching = 0 then Array.unsafe_set st branch w
    else begin
      let hit = Bool.to_int (Bool.to_int taken = (w lsr 3) land 1) in
      let w = w + (1 lsl seen_shift) + (hit lsl in_dir_shift) in
      if seen w >= horizon then begin
        finish w;
        Array.unsafe_set st branch (w land (1 lor sampled))
      end
      else Array.unsafe_set st branch w
    end
  in
  let _result = Engine.run ~observer ~on_transition ?trace pop config params in
  Array.iter (fun w -> if w land watching <> 0 && seen w >= 16 then finish w) st;
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
