(* Property-based tests (via the Prop helper) for the counting utilities
   the observability layer depends on: streaming statistics and
   histograms. *)

module Stats = Rs_util.Running_stats
module Hist = Rs_util.Histogram

(* --- Running_stats vs a naive two-pass reference -------------------------- *)

let naive_mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let gen_samples = Prop.array_of ~min_len:1 ~max_len:300 (Prop.float_ ~lo:(-1000.0) ~hi:1000.0)

let close ?(eps = 1e-6) a b = abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b)

let prop_stats_match xs =
  let s = Stats.create () in
  Array.iter (Stats.add s) xs;
  Stats.count s = Array.length xs
  && close (Stats.mean s) (naive_mean xs)

(* --- Histogram: merge preserves counts ------------------------------------ *)

let gen_two_samples =
  Prop.pair
    (Prop.list_of ~max_len:300 (Prop.float_ ~lo:(-0.5) ~hi:1.5))
    (Prop.list_of ~max_len:300 (Prop.float_ ~lo:(-0.5) ~hi:1.5))

let bin_count h i = snd (List.nth (Hist.to_list h) i)

let prop_hist_merge (xs, ys) =
  let bins = 16 in
  let mk zs =
    let h = Hist.create ~bins () in
    List.iter (Hist.add h) zs;
    h
  in
  let a = mk xs and b = mk ys in
  let m = Hist.merge a b in
  Hist.count m = Hist.count a + Hist.count b
  && List.for_all
       (fun i -> bin_count m i = bin_count a i + bin_count b i)
       (List.init bins Fun.id)
  (* the inputs are untouched *)
  && Hist.count a = List.length xs
  && Hist.count b = List.length ys

let suite =
  [
    Prop.test ~count:300 "running stats match two-pass reference" gen_samples prop_stats_match;
    Prop.test "histogram merge preserves counts" gen_two_samples prop_hist_merge;
  ]
