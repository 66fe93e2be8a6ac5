module Profile = Rs_sim.Profile
module Static = Rs_core.Static

type track = { branch : int; series : (int * float) list }

type t = { benchmark : string; block : int; tracks : track list }

let benchmark = "gap"
let block = 1_000
let count = 5

let run ctx =
  let bm = Rs_workload.Benchmark.find benchmark in
  let pop, cfg = Cache.build ctx bm ~input:Ref in
  (* Pass 1: find branches that look invariant early (first window ~100%
     biased) but are not biased over their whole run.  The profile comes
     from the shared cache (one collection serves figures 2, 3 and 5). *)
  let profile = Cache.profile ctx bm ~input:Ref in
  let verdicts =
    Array.init (Profile.n_branches profile) (fun b ->
        let early = Profile.counts_in_window profile b ~window:20_000 in
        let whole = Profile.counts profile b in
        if
          early.execs >= 20_000
          && Static.bias early >= 0.995
          && Static.bias whole < 0.99
        then Some (b, whole.execs)
        else None)
  in
  let candidates =
    Array.fold_left
      (fun acc v -> match v with Some c -> c :: acc | None -> acc)
      [] verdicts
  in
  let candidates = List.sort (fun (_, a) (_, b) -> compare b a) candidates in
  let chosen = List.filteri (fun i _ -> i < count) candidates in
  (* Pass 2: block-bias series for the chosen branches. *)
  let tracks_data =
    Rs_sim.Tracks.Exec_blocks.collect
      ?trace:(Cache.trace ctx bm ~input:Ref)
      pop cfg ~branches:(List.map fst chosen) ~block
  in
  let tracks =
    List.map
      (fun (b, _) -> { branch = b; series = Rs_sim.Tracks.Exec_blocks.series tracks_data b })
      chosen
  in
  { benchmark; block; tracks }

let sparkline series =
  (* one character per block bucket: bias in the branch's initial
     direction, 0..100% *)
  let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
  let initial_dir =
    match series with (_, b0) :: _ -> b0 >= 0.5 | [] -> true
  in
  String.concat ""
    (List.map
       (fun (_, taken_frac) ->
         let aligned = if initial_dir then taken_frac else 1.0 -. taken_frac in
         let i = int_of_float (aligned *. 9.99) in
         String.make 1 glyphs.(max 0 (min 9 i)))
       series)

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Figure 3: %s branches with initially invariant behaviour\n\
       \  (bias per %d-execution block, aligned to the initial direction;\n\
       \   '@' = 100%% initial direction, ' ' = fully reversed)\n"
       t.benchmark t.block);
  if t.tracks = [] then Buffer.add_string buf "  (no matching branches at this scale)\n"
  else
    List.iter
      (fun tr ->
        let tail = List.filteri (fun i _ -> i >= 120) tr.series in
        let shown = if tail = [] then tr.series else List.filteri (fun i _ -> i < 120) tr.series in
        Buffer.add_string buf
          (Printf.sprintf "  branch %5d |%s|%s\n" tr.branch (sparkline shown)
             (if tail = [] then "" else " ...")))
      t.tracks;
  Buffer.add_string buf
    "  paper: all five gap branches are ~100% biased for >= 20,000 executions, then change.\n";
  Buffer.contents buf
