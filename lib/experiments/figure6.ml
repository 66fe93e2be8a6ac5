module BM = Rs_workload.Benchmark

type t = {
  samples : int;
  histogram : ((float * float) * int) list;
  below_30pct : float;
  reversed : float;
}

let run ctx =
  (* Aggregate eviction-vicinity data across all benchmarks.  The watches
     fan out over the pool (the eviction watch replays the stream with an
     observer hook, so only the build is shareable); the fold below stays
     in benchmark order, so the aggregate is jobs-independent. *)
  let watches =
    Rs_util.Pool.map_ordered (Context.pool ctx)
      (fun (bm : BM.t) ->
        let pop, cfg = Cache.build ctx bm ~input:Ref in
        Rs_sim.Eviction_watch.run
          ?trace:(Cache.trace ctx bm ~input:Ref)
          pop cfg (Context.params ctx))
      (Array.of_list BM.all)
  in
  let hist = ref (Rs_util.Histogram.create ~bins:20 ()) in
  let samples = ref 0 in
  let below = ref 0.0 in
  let reversed = ref 0.0 in
  Array.iter
    (fun (w : Rs_sim.Eviction_watch.t) ->
      samples := !samples + w.samples;
      below := !below +. (w.fraction_below_30pct *. float_of_int w.samples);
      reversed := !reversed +. (w.fraction_reversed *. float_of_int w.samples);
      hist := Rs_util.Histogram.merge !hist w.histogram)
    watches;
  let n = float_of_int (max 1 !samples) in
  {
    samples = !samples;
    histogram = Rs_util.Histogram.to_list !hist;
    below_30pct = !below /. n;
    reversed = !reversed /. n;
  }

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Figure 6: post-eviction bias in the original direction (64 executions after eviction)\n";
  let total = max 1 t.samples in
  List.iter
    (fun ((lo, hi), count) ->
      let frac = float_of_int count /. float_of_int total in
      let bar = String.make (int_of_float (frac *. 60.0)) '#' in
      Buffer.add_string buf
        (Printf.sprintf "  %3.0f-%3.0f%% |%-60s| %d\n" (lo *. 100.0) (hi *. 100.0) bar count))
    t.histogram;
  Buffer.add_string buf
    (Printf.sprintf
       "  evictions sampled: %d\n\
       \  bias < 30%% in transition period: %.0f%%   (paper: >50%%)\n\
       \  perfectly reversed (<5%%):        %.0f%%   (paper: ~20%%)\n"
       t.samples (t.below_30pct *. 100.0) (t.reversed *. 100.0));
  Buffer.contents buf
