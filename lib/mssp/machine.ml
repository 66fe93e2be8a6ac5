module Prng = Rs_util.Prng
module B = Rs_behavior.Behavior
module Reactive = Rs_core.Reactive

let src = Logs.Src.create "rspec.mssp" ~doc:"MSSP asymmetric-CMP timing simulator"

module Log = (val Logs.src_log src : Logs.LOG)

type stats = {
  mssp_cycles : float;
  baseline_cycles : float;
  tasks : int;
  squashes : int;
  violated_branches : int;
  orig_instrs : int;
  master_instrs : int;
  recompilations : int;
  baseline_mispredict_rate : float;
  evictions : int;
  selections : int;
}

let speedup s = s.baseline_cycles /. s.mssp_cycles

(* Pack the controller's deployed decisions for a region's sites into an
   integer key: 2 bits per site, the {!Reactive.deployed_code} encoding
   (bit 0 speculate, bit 1 direction). *)
let decision_key controller site_ids =
  let key = ref 0 in
  for j = 0 to Array.length site_ids - 1 do
    key := !key lor (Reactive.deployed_code controller site_ids.(j) lsl (2 * j))
  done;
  !key

(* [Float.max] for the non-negative, non-NaN cycle counts below, inlined
   so no float crosses a call boundary boxed. *)
let[@inline] fmax (x : float) y = if y > x then y else x

(* Largest site count a region may have here: the per-run version table
   holds 4^k slots, and a key's speculate bits fit the 0x5555 mask. *)
let max_region_sites = 8

let run ?(config = Config.default) (inst : Workload.instance) ~seed ~params =
  if config.max_inflight_tasks < 1 then invalid_arg "Machine.run: max_inflight_tasks must be >= 1";
  Array.iter
    (fun region ->
      if Region_model.n_sites region > max_region_sites then
        invalid_arg "Machine.run: region has too many sites")
    inst.regions;
  let rng = Prng.create ((seed * 2_654_435) + 17) in
  let site_rngs = Array.init inst.n_sites (fun _ -> Prng.split rng) in
  let site_execs = Array.make inst.n_sites 0 in
  let controller = Reactive.create ~n_branches:inst.n_sites params in
  let baseline_pred = Gshare.create ~bits:config.predictor_bits in
  let master_pred = Gshare.create ~bits:config.predictor_bits in
  (* This run's versions, per region, indexed by decision key.  A miss
     goes to the slot of the key's canonical form (direction bits of
     unspeculated sites cleared), which is filled from the region
     model's cross-run table on first use: the canonical slots filled
     are exactly the distinct versions this run requested. *)
  let versions = Array.make (Array.length inst.regions) [||] in
  let recompilations = ref 0 in
  let version_for r region key =
    let k = Region_model.n_sites region in
    if Array.length versions.(r) = 0 then versions.(r) <- Array.make (1 lsl (2 * k)) None;
    let table = versions.(r) in
    match table.(key) with
    | Some v -> v
    | None ->
      let speculated = key land 0x5555 in
      let canonical = key land (speculated lor (speculated lsl 1)) in
      let v =
        match table.(canonical) with
        | Some v -> v
        | None ->
          let mask = ref 0 and bits = ref 0 in
          for j = 0 to k - 1 do
            let code = (canonical lsr (2 * j)) land 3 in
            if code land 1 <> 0 then mask := !mask lor (1 lsl j);
            if code land 2 <> 0 then bits := !bits lor (1 lsl j)
          done;
          incr recompilations;
          let v = Region_model.version_bits region ~mask:!mask ~bits:!bits in
          table.(canonical) <- Some v;
          v
      in
      table.(key) <- Some v;
      v
  in
  (* region sampler *)
  let region_pop =
    Rs_behavior.Population.create
      (Array.mapi
         (fun id w -> { Rs_behavior.Population.id; behavior = B.Stationary 0.5; weight = w })
         inst.region_weights)
  in
  let sampler = Rs_behavior.Population.Alias.prepare region_pop in
  let pick_rng = Prng.split rng in
  let lead_ipc = config.leading.effective_ipc in
  let trail_ipc = config.trailing.effective_ipc in
  let lead_depth = float_of_int config.leading.pipeline_depth in
  (* machine state *)
  let master_clock = ref 0.0 in
  let baseline_clock = ref 0.0 in
  let slave_free = Array.make config.n_trailing 0.0 in
  (* verification completion times of the in-flight tasks, oldest at
     [inflight_head]: a ring of [max_inflight_tasks] slots *)
  let max_inflight = config.max_inflight_tasks in
  let inflight = Array.make max_inflight 0.0 in
  let inflight_head = ref 0 in
  let inflight_len = ref 0 in
  let squashes = ref 0 in
  let violated_branches = ref 0 in
  let orig_instrs = ref 0 in
  let master_instrs = ref 0 in
  let pick_slave () =
    let best = ref 0 in
    for i = 1 to config.n_trailing - 1 do
      if slave_free.(i) < slave_free.(!best) then best := i
    done;
    !best
  in
  let iter_outcomes = Array.make config.iters_per_task 0 in
  for _task = 1 to inst.spec.tasks do
    let r = Rs_behavior.Population.Alias.draw sampler pick_rng in
    let region = inst.regions.(r) in
    let site_ids = Region_model.site_ids region in
    (* current deployed speculative version of this region *)
    let version = version_for r region (decision_key controller site_ids) in
    (* a task spans several iterations of the hot region; sample each
       iteration's branch outcomes independently *)
    let orig_len = ref 0 in
    let dist_len = ref 0 in
    let violated = ref false in
    let task_violations = ref 0 in
    for it = 0 to config.iters_per_task - 1 do
      let outcomes = ref 0 in
      for j = 0 to Array.length site_ids - 1 do
        let site = site_ids.(j) in
        let taken =
          B.sample inst.behaviors.(site) ~rng:site_rngs.(site) ~exec_index:site_execs.(site)
            ~instr:!orig_instrs
        in
        site_execs.(site) <- site_execs.(site) + 1;
        if taken then outcomes := !outcomes lor (1 lsl j)
      done;
      let outcomes = !outcomes in
      iter_outcomes.(it) <- outcomes;
      orig_len := !orig_len + Region_model.original_length region ~outcomes;
      dist_len := !dist_len + Region_model.Version.length version ~outcomes;
      if Region_model.Version.violated version ~outcomes then violated := true;
      task_violations := !task_violations + Region_model.Version.violations version ~outcomes
    done;
    let orig_len = !orig_len in
    let dist_len = !dist_len in
    let violated = !violated in
    let instr_after = !orig_instrs + orig_len in
    (* One pass over the branches the task executed, in order: the
       baseline (original code on the leading core) predicts every one;
       the master predicts only those its version did not assume away;
       the trailing execution profiles every one for the controller.
       The controller only feeds the next task's version, so observing
       here, before this task is timed, changes nothing. *)
    let assumed = Region_model.Version.assumed_mask version in
    let base_mp = ref 0 in
    let m_mp = ref 0 in
    for it = 0 to config.iters_per_task - 1 do
      let branches = Region_model.original_branches region ~outcomes:iter_outcomes.(it) in
      for i = 0 to Array.length branches - 1 do
        let b = branches.(i) in
        let site = b lsr 6 and taken = b land 1 = 1 in
        if not (Gshare.predict_and_update baseline_pred ~pc:(site * 97) ~taken) then
          incr base_mp;
        if
          assumed land (1 lsl ((b lsr 1) land 31)) = 0
          && not (Gshare.predict_and_update master_pred ~pc:(site * 97) ~taken)
        then incr m_mp;
        Reactive.observe controller ~branch:site ~taken ~instr:instr_after
      done
    done;
    (* ---- baseline superscalar: original code on the leading core ---- *)
    baseline_clock :=
      !baseline_clock
      +. (float_of_int orig_len /. lead_ipc)
      +. (float_of_int !base_mp *. lead_depth);
    (* ---- MSSP ---- *)
    (* the master may run at most [max_inflight_tasks] tasks ahead of
       verification *)
    if !inflight_len >= max_inflight then begin
      let oldest = inflight.(!inflight_head) in
      inflight_head := (!inflight_head + 1) mod max_inflight;
      decr inflight_len;
      if oldest > !master_clock then master_clock := oldest
    end;
    (* master executes the distilled task; remaining (non-assumed)
       branches still run through its predictor *)
    let exec_cycles =
      (float_of_int dist_len /. lead_ipc)
      +. (float_of_int !m_mp *. lead_depth)
      +. float_of_int config.task_overhead
    in
    let master_finish = !master_clock +. exec_cycles in
    master_instrs := !master_instrs + dist_len;
    (* verification on the least-loaded trailing core *)
    let s = pick_slave () in
    let verify_start =
      fmax (master_finish +. float_of_int config.coherence_hop) slave_free.(s)
    in
    let verify_done =
      verify_start
      +. (float_of_int orig_len /. trail_ipc)
      +. float_of_int config.coherence_hop
    in
    slave_free.(s) <- verify_done;
    if violated then begin
      (* detected at verification: roll back and re-execute the task
         non-speculatively on the master *)
      incr squashes;
      violated_branches := !violated_branches + !task_violations;
      inflight_len := 0;
      master_clock :=
        verify_done
        +. float_of_int config.recovery_penalty
        +. float_of_int
             (config.cold_stub_cost * Region_model.Version.cold_entries version)
        +. (float_of_int orig_len /. lead_ipc)
    end
    else begin
      master_clock := master_finish;
      inflight.((!inflight_head + !inflight_len) mod max_inflight) <- verify_done;
      incr inflight_len
    end;
    orig_instrs := instr_after
  done;
  (* account for verification draining at the end *)
  let final = ref !master_clock in
  for i = 0 to !inflight_len - 1 do
    final := fmax !final inflight.((!inflight_head + i) mod max_inflight)
  done;
  let final = !final in
  let selections = ref 0 and evictions = ref 0 in
  for s = 0 to inst.n_sites - 1 do
    selections := !selections + Reactive.selections controller s;
    evictions := !evictions + Reactive.evictions controller s
  done;
  (* the log reads the finished record: a closure capturing a clock ref
     would keep it boxed, allocating on every task's update *)
  let stats =
    {
      mssp_cycles = final;
      baseline_cycles = !baseline_clock;
      tasks = inst.spec.tasks;
      squashes = !squashes;
      violated_branches = !violated_branches;
      orig_instrs = !orig_instrs;
      master_instrs = !master_instrs;
      recompilations = !recompilations;
      baseline_mispredict_rate = 1.0 -. Gshare.accuracy baseline_pred;
      evictions = !evictions;
      selections = !selections;
    }
  in
  Log.debug (fun m ->
      m "%s: %d tasks, %d squashes, %d recompilations, speedup %.2f" inst.spec.name
        stats.tasks stats.squashes stats.recompilations
        (stats.baseline_cycles /. Float.max final 1.0));
  stats
