module Prng = Rs_util.Prng
module Behavior = Rs_behavior.Behavior
module Population = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module Params = Rs_core.Params

type schedule = Train_then_trigger | Burst_poison

let schedule_name = function
  | Train_then_trigger -> "train_then_trigger"
  | Burst_poison -> "burst_poison"

let schedules = [ Train_then_trigger; Burst_poison ]

let instr_per_branch = 5.0

(* Victim executions until a continuous eviction counter saturates when
   each execution misspeculates with probability [strength]: the counter
   climbs [strength * misspec_step - (1 - strength) * correct_step] per
   execution on average.  Infinite (max_int) when the poison is too weak
   to climb at all. *)
let evict_execs (p : Params.t) ~strength =
  match p.eviction_mode with
  | Params.Sampled { window; _ } -> 4 * window
  | Params.Continuous ->
    let rate =
      (strength *. float_of_int p.misspec_step)
      -. ((1.0 -. strength) *. float_of_int p.correct_step)
    in
    (* A mathematically-zero rate can round to a few ulps of either sign
       (e.g. 0.3*7 - 0.7*3): treat anything that close to zero as not
       climbing, or the predicted run length explodes. *)
    if rate <= 1e-9 then max_int
    else int_of_float (ceil (float_of_int p.evict_threshold /. rate))

type build_result = {
  population : Population.t;
  config : Stream.config;
  victims : int array;  (** Branch ids under attack (a prefix of the ids). *)
}

let build schedule ~strength ~params ~seed ~scale =
  if scale <= 0.0 || scale > 1.0 then invalid_arg "Mistrain.build: scale must be in (0, 1]";
  if strength <= 0.0 || strength > 1.0 then
    invalid_arg "Mistrain.build: strength must be in (0, 1]";
  (match Params.validate params with
  | Ok () -> ()
  | Error m -> invalid_arg ("Mistrain.build: " ^ m));
  let p = params in
  let rng =
    Prng.create ((seed * 1_000_003) + Hashtbl.hash ("mistrain:" ^ schedule_name schedule))
  in
  let n_victims = Benchmark.scale_count scale 3 in
  let n_background = Benchmark.scale_count scale 21 in
  let n = n_victims + n_background in
  let m = Adversary.monitor_execs p in
  let lat = Adversary.latency_execs p ~n_branches:n in
  (* Train long enough that the victim is selected and its speculative
     code deployed well before the attack input arrives. *)
  let train = m + (2 * lat) + 64 in
  let evict = evict_execs p ~strength in
  let evict = if evict = max_int then 4 * Adversary.evict_misses p else evict in
  (* Keep the stream packable even when the poison barely outruns the
     drain: a run 100x the pure miss count already dwarfs every phase of
     interest. *)
  let evict = min evict (100 * Adversary.evict_misses p) in
  (* Sub-eviction poison burst and the re-training run that drains a
     quarter of what the burst gained (shared by the behaviour and the
     budget so the stream always outlives the quarantine point). *)
  let burst = max 1 (evict / 2) in
  let retrain =
    let gained = int_of_float (float_of_int burst *. strength *. float_of_int p.misspec_step) in
    max 1 (gained / (4 * p.correct_step))
  in
  let victim_behavior dir =
    match schedule with
    | Train_then_trigger ->
      (* One poisoned phase, long enough to guarantee the eviction and
         its deployment even under sampling noise; the final phase
         extends to infinity, so the attack pressure never lets up. *)
      Behavior.Phases
        (Benchmark.flip_phases dir
           [|
             { Behavior.length = train; p_taken = 1.0 };
             { Behavior.length = 1; p_taken = 1.0 -. strength };
           |])
    | Burst_poison ->
      (* Sub-eviction bursts separated by re-training runs that only
         partially drain the counter: the controller bleeds a little
         every burst and quarantines some cycles in. *)
      let phases = ref [ { Behavior.length = train; p_taken = 1.0 } ] in
      for _ = 1 to 6 do
        phases :=
          { Behavior.length = retrain; p_taken = 1.0 }
          :: { Behavior.length = burst; p_taken = 1.0 -. strength }
          :: !phases
      done;
      phases := { Behavior.length = 1; p_taken = 1.0 -. strength } :: !phases;
      Behavior.Phases (Benchmark.flip_phases dir (Array.of_list (List.rev !phases)))
  in
  let victim_budget =
    match schedule with
    | Train_then_trigger -> train + (3 * evict) + (2 * lat) + m
    | Burst_poison -> train + (6 * (burst + retrain)) + (3 * evict) + (2 * lat)
  in
  let specs =
    Array.init n (fun id ->
        let dir = Prng.bool rng in
        if id < n_victims then
          { Population.id; behavior = victim_behavior dir; weight = float_of_int victim_budget }
        else
          {
            Population.id;
            behavior = Behavior.Stationary (if dir then 0.997 else 0.003);
            weight = float_of_int victim_budget;
          })
  in
  let length = n * victim_budget in
  {
    population = Population.create specs;
    config =
      {
        Stream.seed = (seed * 37) + Hashtbl.hash (schedule_name schedule) mod 1_000;
        instr_per_branch;
        length;
      };
    victims = Array.init n_victims (fun i -> i);
  }
