(* Property-based tests (via the Prop helper) for the counting utilities
   the observability layer depends on: histograms. *)

module Hist = Rs_util.Histogram

(* --- Histogram: merge preserves counts ------------------------------------ *)

let gen_two_samples =
  Prop.pair
    (Prop.list_of ~max_len:300 (Prop.float_ ~lo:(-0.5) ~hi:1.5))
    (Prop.list_of ~max_len:300 (Prop.float_ ~lo:(-0.5) ~hi:1.5))

let bin_count h i = snd (List.nth (Hist.to_list h) i)
let total h = List.fold_left (fun acc (_, c) -> acc + c) 0 (Hist.to_list h)

let prop_hist_merge (xs, ys) =
  let bins = 16 in
  let mk zs =
    let h = Hist.create ~bins () in
    List.iter (Hist.add h) zs;
    h
  in
  let a = mk xs and b = mk ys in
  let m = Hist.merge a b in
  total m = total a + total b
  && List.for_all
       (fun i -> bin_count m i = bin_count a i + bin_count b i)
       (List.init bins Fun.id)
  (* the inputs are untouched *)
  && total a = List.length xs
  && total b = List.length ys

let suite =
  [
    Prop.test "histogram merge preserves counts" gen_two_samples prop_hist_merge;
  ]
