module Prng = Rs_util.Prng
module Sampler = Rs_behavior.Stream.Sampler
module Reactive = Rs_core.Reactive

type stats = {
  mssp_cycles : float;
  baseline_cycles : float;
  tasks : int;
  squashes : int;
  violated_branches : int;
  orig_instrs : int;
  master_instrs : int;
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

(* What no controller decision can change: the region each task draws
   and how its branches resolve (a site's behaviour reads only its own
   execution count and the original-instruction clock), hence also the
   baseline core's cycles and predictor. *)
type tape = {
  spec : Workload.t;
  cells : int array;
      (* one per task: iteration [it]'s outcome vector in bits
         [8it .. 8it+7] (a region has at most 8 sites), the region index
         above the last iteration's *)
  baseline_cycles : float;
  baseline_mispredict_rate : float;
}

let region_shift = 8 * Config.default.iters_per_task
let[@inline] iteration_outcomes cell it = (cell lsr (8 * it)) land 0xff

let record (inst : Workload.instance) ~seed =
  let config = Config.default in
  let rng = Prng.create ((seed * 2_654_435) + 17) in
  let sites = Sampler.create inst.behaviors rng in
  let baseline_pred = Gshare.create ~bits:config.predictor_bits in
  let sampler = Rs_behavior.Stream.Alias.of_weights inst.region_weights in
  let pick_rng = Prng.split rng in
  let lead_ipc = config.leading.effective_ipc in
  let lead_depth = float_of_int config.leading.pipeline_depth in
  let baseline_clock = ref 0.0 in
  let orig_instrs = ref 0 in
  let cells = Array.make inst.spec.tasks 0 in
  let baseline_misses = ref 0 in
  let branches_seen = ref 0 in
  for task = 0 to inst.spec.tasks - 1 do
    let r = Rs_behavior.Stream.Alias.draw sampler pick_rng in
    let region = inst.regions.(r) in
    let site_ids = region.site_ids in
    (* a task spans several iterations of the hot region; sample each
       iteration's branch outcomes independently *)
    let cell = ref (r lsl region_shift) in
    let orig_len = ref 0 in
    let base_mp = ref 0 in
    for it = 0 to config.iters_per_task - 1 do
      let outcomes = ref 0 in
      for j = 0 to Array.length site_ids - 1 do
        outcomes :=
          !outcomes lor (Bool.to_int (Sampler.next sites site_ids.(j) ~instr:!orig_instrs) lsl j)
      done;
      let outcomes = !outcomes in
      cell := !cell lor (outcomes lsl (8 * it));
      orig_len := !orig_len + region.orig_lengths.(outcomes);
      (* the baseline (original code on the leading core) predicts every
         branch the task executes *)
      let branches = region.orig_branches.(outcomes) in
      for i = 0 to Array.length branches - 1 do
        let b = branches.(i) in
        base_mp :=
          !base_mp + Gshare.step baseline_pred ~pc:((b lsr 6) * 97) ~taken:(b land 1) ~active:1
      done;
      branches_seen := !branches_seen + Array.length branches
    done;
    cells.(task) <- !cell;
    baseline_clock :=
      !baseline_clock
      +. (float_of_int !orig_len /. lead_ipc)
      +. (float_of_int !base_mp *. lead_depth);
    baseline_misses := !baseline_misses + !base_mp;
    orig_instrs := !orig_instrs + !orig_len
  done;
  let n = !branches_seen in
  {
    spec = inst.spec;
    cells;
    baseline_cycles = !baseline_clock;
    baseline_mispredict_rate =
      1.0 -. (if n = 0 then 1.0 else float_of_int (n - !baseline_misses) /. float_of_int n);
  }

let replay (inst : Workload.instance) tape ~params =
  if inst.spec <> tape.spec then invalid_arg ("Machine.replay: a tape of " ^ tape.spec.name);
  let config = Config.default in
  let controller = Reactive.create ~n_branches:inst.n_sites params in
  let master_pred = Gshare.create ~bits:config.predictor_bits in
  let lead_ipc = config.leading.effective_ipc in
  let trail_ipc = config.trailing.effective_ipc in
  let lead_depth = float_of_int config.leading.pipeline_depth in
  (* machine state *)
  let master_clock = ref 0.0 in
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
  (* the controller's input: one task's branches, packed as
     {!Reactive.step_chunk} reads them with every delta 0, so each is
     observed at the instruction count the task sets in [score.instr] *)
  let max_task_branches =
    Array.fold_left
      (fun m (r : Region_model.t) ->
        Array.fold_left (fun m b -> max m (Array.length b)) m r.orig_branches)
      0 inst.regions
  in
  let branch_shift = Rs_behavior.Stream.branch_shift in
  let words = Array.make (config.iters_per_task * max_task_branches) 0 in
  let score = Reactive.score () in
  for task = 0 to Array.length tape.cells - 1 do
    let cell = tape.cells.(task) in
    let region = inst.regions.(cell lsr region_shift) in
    (* current deployed speculative version of this region *)
    let version = Region_model.version region ~key:(decision_key controller region.site_ids) in
    let orig_len = ref 0 in
    let dist_len = ref 0 in
    let task_violations = ref 0 in
    for it = 0 to config.iters_per_task - 1 do
      let outcomes = iteration_outcomes cell it in
      orig_len := !orig_len + region.orig_lengths.(outcomes);
      dist_len := !dist_len + version.lengths.(outcomes);
      task_violations := !task_violations + version.violations.(outcomes)
    done;
    let orig_len = !orig_len in
    let dist_len = !dist_len in
    let task_violations = !task_violations in
    let instr_after = !orig_instrs + orig_len in
    (* One pass over the branches the task executed, in order: the
       master predicts only those its version did not assume away; the
       trailing execution profiles every one for the controller, in one
       [step_chunk] at [instr_after].  The controller only feeds the
       next task's version, so observing here, before this task is
       timed, changes nothing. *)
    let assumed = version.assumed_mask in
    let m_mp = ref 0 in
    let n = ref 0 in
    for it = 0 to config.iters_per_task - 1 do
      let branches = region.orig_branches.(iteration_outcomes cell it) in
      for i = 0 to Array.length branches - 1 do
        let b = branches.(i) in
        let site = b lsr 6 and taken = b land 1 in
        let active = ((assumed lsr ((b lsr 1) land 31)) land 1) lxor 1 in
        m_mp := !m_mp + Gshare.step master_pred ~pc:(site * 97) ~taken ~active;
        words.(!n + i) <- (site lsl branch_shift) lor taken
      done;
      n := !n + Array.length branches
    done;
    score.instr <- instr_after;
    Reactive.step_chunk controller score words !n;
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
    if task_violations > 0 then begin
      (* detected at verification: roll back and re-execute the task
         non-speculatively on the master *)
      incr squashes;
      violated_branches := !violated_branches + task_violations;
      inflight_len := 0;
      master_clock :=
        verify_done
        +. float_of_int config.recovery_penalty
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
  {
    mssp_cycles = final;
    baseline_cycles = tape.baseline_cycles;
    tasks = inst.spec.tasks;
    squashes = !squashes;
    violated_branches = !violated_branches;
    orig_instrs = !orig_instrs;
    master_instrs = !master_instrs;
    baseline_mispredict_rate = tape.baseline_mispredict_rate;
    evictions = !evictions;
    selections = !selections;
  }

let run inst ~seed ~params = replay inst (record inst ~seed) ~params
