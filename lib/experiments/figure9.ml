type t = { benchmark : string; buckets : int; flippers : (int * (int * int) list) list }

let benchmark = "vortex"
let buckets = 64

let run ctx =
  let bm = Rs_workload.Benchmark.find benchmark in
  let pop, cfg = Cache.build ctx bm ~input:Ref in
  let data =
    Rs_sim.Tracks.Intervals.collect
      ?trace:(Cache.trace ctx bm ~input:Ref)
      pop cfg ~buckets ~min_execs:40
  in
  { benchmark; buckets; flippers = Rs_sim.Tracks.Intervals.flippers data ~threshold:0.99 }

let render t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "Figure 9: %s branches flipping between biased and unbiased (%d branches; one track \
        each,\n  '#' = interval classified >99%% biased, time left to right in %d buckets)\n"
       t.benchmark (List.length t.flippers) t.buckets);
  let shown = List.filteri (fun i _ -> i < 60) t.flippers in
  List.iter
    (fun (b, spans) ->
      let line = Bytes.make t.buckets '.' in
      List.iter
        (fun (lo, hi) ->
          for k = lo to hi do
            Bytes.set line k '#'
          done)
        spans;
      Buffer.add_string buf (Printf.sprintf "  %5d |%s|\n" b (Bytes.to_string line)))
    shown;
  if List.length t.flippers > 60 then
    Buffer.add_string buf
      (Printf.sprintf "  ... and %d more tracks\n" (List.length t.flippers - 60));
  Buffer.add_string buf
    (Printf.sprintf
       "  flipping branches: %d (paper: 139 in vortex at full scale; groups change together)\n"
       (List.length t.flippers));
  Buffer.contents buf
