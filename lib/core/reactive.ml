(* Packed-integer implementation of the Figure 4(b) controller.

   Per-branch state lives in one flat int array of [slots] words per
   branch instead of a heap record per branch: the GC scans only
   immediates, and an event is pure integer arithmetic whose decision
   is a 2-bit code.

   Word layout, [base = branch * slots]:

     +0  ctrl        bits 0-1 phase (0 monitor / 1 biased / 2 unbiased /
                     3 disabled), bit 2 biased direction, bit 3 deployed
                     speculate, bit 4 deployed direction, bit 5 pending
                     speculate, bit 6 pending direction
     +1  execs
     +2  scratch A   monitor: seen count (stride position when
                     [monitor_stride > 1]) | biased: continuous eviction
                     counter, or sampled eviction's countdown to the
                     next window boundary | unbiased: wait_left
     +3  scratch B   mon_taken | sampled-window position
     +4  scratch C   monitor: stride position (seen count when
                     [monitor_stride > 1]) | sampled misses
     +5  pending activation instruction count (-1 = none)
     +6  selections
     +7  evictions

   The strided monitor swaps A and C, and sampled eviction keeps a
   countdown in A, so that the event [step_chunk]'s fast path takes —
   a sub-boundary stride step, a correct biased execution inside a
   sample or window — moves A by one and stays inside a table range,
   like every other fast-path event.  Continuous eviction and stride 1
   use A, B and C exactly as the layout's first names say.

   After the last branch, word [n_branches * slots] holds the last
   instruction count seen (the non-decreasing-[instr] cursor), followed
   by a cache line of padding.  It lives in the array rather than in
   the record because [observe] writes it on every event: records of
   two controllers stepped from two domains (two of the pool's runs)
   can sit side by side on the heap, and a write there invalidates a
   cache line the other domain reads on every event (it cost the
   sharded server, which stepped one controller per domain, a third of
   its event rate on a 2-core x86-64 box).

   Scratch slots are shared across phases because every entry arc resets
   its own scratch, exactly as the old record version's [enter_*]
   helpers did.  A transition bumps its arc counter and, only when an
   [on_transition] hook is installed, builds a boxed transition record
   for it; the controller keeps no log of them.

   [step_chunk] and [step_cells] run every event that changes only A,
   B and [execs] through a call-free loop.  The events that leave it
   are the ones that change anything else: a transition (closing a
   monitor interval, an eviction, a revisit), a pending deployment
   activating, a misspeculation, a strided monitor's sampled
   execution, and the last event of a sampled-eviction sample or
   window. *)

let slots = 8
let s_ctrl = 0
let s_execs = 1
let s_a = 2
let s_b = 3
let s_c = 4
let s_pend_at = 5
let s_selections = 6
let s_evictions = 7

(* ctrl-word fields *)
let phase_biased = 1
let phase_unbiased = 2
let phase_disabled = 3
let bit_direction = 4
let dep_shift = 3
let pend_shift = 5

type t = {
  params : Params.t;
  monitor_samples : int;
  n_branches : int;
  state : int array;
  on_transition : (Types.transition -> unit) option;
  cursor : int;  (* index in [state] of the last instruction count seen *)
  seen : int;  (* slot of the monitor's seen count: A, or C when strided *)
  stride : int;  (* slot of the monitor's stride position: C, or A when strided *)
  fast : int array;  (* the [step_chunk] fast-path table, 4 ints per entry *)
}

let[@inline] get t i = Array.unsafe_get t.state i
let[@inline] set t i v = Array.unsafe_set t.state i v
let[@inline] last_instr t = get t t.cursor
let[@inline] set_last_instr t v = set t t.cursor v

(* Sampled eviction's scratch A at window position [pos]: the events
   left to the end of the sample, then to the end of the window.  A
   window whose sample fills it ([samples = window]) rests at 0 after
   its evaluation until the next event restarts it. *)
let countdown ~window ~samples pos = if pos < samples then samples - pos else window - pos

(* Scratch A on entering the biased phase (window position 0). *)
let biased_a (p : Params.t) =
  match p.eviction_mode with Params.Continuous -> 0 | Params.Sampled { samples; _ } -> samples

(* The [step_chunk] fast-path table, derived once from [params].  Entry
   [(ctrl land 15) lsl 1 lor taken] — phase, biased direction and
   deployed-speculate bits, and the outcome — holds four ints: the
   increment to scratch A, the increment to scratch B, and a range
   [lo, hi) the incremented A must fall in for the event to change
   nothing but A, B and [execs].  Any other effect — closing a monitor
   interval, a strided monitor's sampled execution, an eviction, the
   end of a sampled-eviction sample or window, a revisit — puts the
   incremented A outside its range (or the entry has the empty range
   [1, 0)), sending the event to [observe_state].  The kernel clamps
   the new A at 0, the continuous eviction counter's floor: that
   counter's correct-outcome entry has [lo = -correct_step], admitting
   any old A >= 0, and every other range starts at 0 or 1, where the
   clamp is the identity. *)
let fast_table (p : Params.t) ~monitor_samples =
  let tbl = Array.make (32 * 4) 0 in
  for ctrl = 0 to 15 do
    for taken = 0 to 1 do
      let direction = (ctrl lsr 2) land 1 and deployed_spec = (ctrl lsr 3) land 1 in
      let always = (0, 0, 0, max_int) and never = (0, 0, 1, 0) in
      let a_inc, b_inc, lo, hi =
        match ctrl land 3 with
        | 0 (* Monitoring: A seen, or A the stride position when strided *) ->
          if p.monitor_stride = 1 then (1, taken, 0, monitor_samples)
          else (1, 0, 1, p.monitor_stride)
        | 1 (* Biased *) -> (
          if deployed_spec = 0 || not p.enable_eviction then always
          else
            match p.eviction_mode with
            | Params.Continuous ->
              if taken <> direction then (p.misspec_step, 0, 0, p.evict_threshold)
              else (-p.correct_step, 0, -p.correct_step, p.evict_threshold)
            | Params.Sampled _ -> if taken <> direction then never else (-1, 1, 1, max_int))
        | 2 (* Unbiased *) -> if p.enable_revisit then (-1, 0, 1, max_int) else always
        | _ (* Disabled *) -> always
      in
      let e = ((ctrl lsl 1) lor taken) * 4 in
      tbl.(e) <- a_inc;
      tbl.(e + 1) <- b_inc;
      tbl.(e + 2) <- lo;
      tbl.(e + 3) <- hi
    done
  done;
  tbl

let create ?on_transition ~n_branches params =
  (match Params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Reactive.create: " ^ msg));
  if n_branches <= 0 then invalid_arg "Reactive.create: n_branches must be positive";
  let cursor = n_branches * slots in
  let state = Array.make (cursor + 8) 0 in
  for b = 0 to n_branches - 1 do
    state.((b * slots) + s_pend_at) <- -1
  done;
  state.(cursor) <- min_int;
  let monitor_samples = Params.monitor_samples params in
  let strided = params.monitor_stride > 1 in
  {
    params;
    monitor_samples;
    n_branches;
    state;
    on_transition;
    cursor;
    seen = (if strided then s_c else s_a);
    stride = (if strided then s_a else s_c);
    fast = fast_table params ~monitor_samples;
  }

let params t = t.params
let n_branches t = t.n_branches

(* The four possible decisions, preallocated and shared: bit 0 of a
   decision code is [speculate], bit 1 is [direction]. *)
let decisions =
  [|
    { Types.speculate = false; direction = false };
    { Types.speculate = true; direction = false };
    { Types.speculate = false; direction = true };
    { Types.speculate = true; direction = true };
  |]

let decision_of_code code = Array.unsafe_get decisions (code land 3)

let[@inline] check_branch t ~caller b =
  if b < 0 || b >= t.n_branches then invalid_arg (caller ^ ": branch out of range")

let deployed_code t b =
  check_branch t ~caller:"Reactive.deployed" b;
  (get t ((b * slots) + s_ctrl) lsr dep_shift) land 3

let deployed t b = decision_of_code (deployed_code t b)

let selections t b =
  check_branch t ~caller:"Reactive.selections" b;
  get t ((b * slots) + s_selections)

let evictions t b =
  check_branch t ~caller:"Reactive.evictions" b;
  get t ((b * slots) + s_evictions)

let touched t b =
  check_branch t ~caller:"Reactive.touched" b;
  get t ((b * slots) + s_execs) > 0

let capped t b =
  check_branch t ~caller:"Reactive.capped" b;
  get t ((b * slots) + s_ctrl) land 3 = phase_disabled

(* One counter per state arc of Figure 4(b); transitions are orders of
   magnitude rarer than observations, so the stripe increment is noise. *)
let m_selected = Rs_obs.Metrics.counter "reactive.transitions.selected"
let m_unbiased = Rs_obs.Metrics.counter "reactive.transitions.declared-unbiased"
let m_evicted = Rs_obs.Metrics.counter "reactive.transitions.evicted"
let m_revisited = Rs_obs.Metrics.counter "reactive.transitions.revisited"
let m_capped = Rs_obs.Metrics.counter "reactive.transitions.capped"

(* Transition kinds as small ints, indexing the arc counters. *)
let k_selected = 0
let k_unbiased = 1
let k_evicted = 2
let k_revisited = 3
let k_capped = 4
let arc_counters = [| m_selected; m_unbiased; m_evicted; m_revisited; m_capped |]

let kind_of_code = function
  | 0 -> Types.Selected
  | 1 -> Types.Declared_unbiased
  | 2 -> Types.Evicted
  | 3 -> Types.Revisited
  | _ -> Types.Capped

let record t ~branch ~instr code =
  Rs_obs.Metrics.incr (Array.unsafe_get arc_counters code);
  match t.on_transition with
  | None -> ()
  | Some f ->
    let execs = get t ((branch * slots) + s_execs) in
    f { Types.branch; instr; exec_index = execs; kind = kind_of_code code }

(* Request a code change: it becomes the deployed behaviour
   [optimization_latency] instructions from now.  A newer request
   supersedes an in-flight one (the re-optimizer works on the most
   recent characterization).  [code] is a decision code. *)
let request t base ~instr ~code =
  if t.params.optimization_latency = 0 then begin
    set t (base + s_ctrl)
      ((get t (base + s_ctrl) land lnot (3 lsl dep_shift)) lor (code lsl dep_shift));
    set t (base + s_pend_at) (-1)
  end
  else begin
    set t (base + s_pend_at) (instr + t.params.optimization_latency);
    set t (base + s_ctrl)
      ((get t (base + s_ctrl) land lnot (3 lsl pend_shift)) lor (code lsl pend_shift))
  end

let enter_monitor t base =
  set t (base + s_ctrl) (get t (base + s_ctrl) land lnot 3);
  set t (base + s_a) 0;
  set t (base + s_b) 0;
  set t (base + s_c) 0

let evict t branch base ~instr =
  set t (base + s_evictions) (get t (base + s_evictions) + 1);
  record t ~branch ~instr k_evicted;
  enter_monitor t base;
  request t base ~instr ~code:0

(* Close a monitoring interval and classify the branch. *)
let classify t branch base ~instr =
  let taken = get t (base + s_b) and seen = get t (base + t.seen) in
  let majority = max taken (seen - taken) in
  let bias = float_of_int majority /. float_of_int seen in
  if bias >= t.params.selection_threshold then begin
    if get t (base + s_selections) >= t.params.oscillation_limit then begin
      set t (base + s_ctrl) ((get t (base + s_ctrl) land lnot 3) lor phase_disabled);
      record t ~branch ~instr k_capped;
      if (get t (base + s_ctrl) lsr dep_shift) land 1 = 1 || get t (base + s_pend_at) >= 0
      then request t base ~instr ~code:0
    end
    else begin
      let direction = taken * 2 >= seen in
      let dir_bit = if direction then bit_direction else 0 in
      set t (base + s_ctrl)
        ((get t (base + s_ctrl) land lnot (3 lor bit_direction)) lor phase_biased lor dir_bit);
      set t (base + s_a) (biased_a t.params);
      set t (base + s_b) 0;
      set t (base + s_c) 0;
      set t (base + s_selections) (get t (base + s_selections) + 1);
      request t base ~instr ~code:(if direction then 3 else 1);
      record t ~branch ~instr k_selected
    end
  end
  else begin
    set t (base + s_ctrl) ((get t (base + s_ctrl) land lnot 3) lor phase_unbiased);
    set t (base + s_a) t.params.wait_period;
    set t (base + s_c) 0;
    record t ~branch ~instr k_unbiased
  end

let observe_biased t branch base ctrl ~taken ~instr =
  if (ctrl lsr dep_shift) land 1 = 0 then ()
    (* The new code is not deployed yet; the paper does not count correct
       or incorrect speculations during the optimization latency. *)
  else begin
    match t.params.eviction_mode with
    | Params.Continuous ->
      if t.params.enable_eviction then begin
        let direction = ctrl land bit_direction <> 0 in
        let c0 = get t (base + s_a) in
        let c =
          if taken <> direction then c0 + t.params.misspec_step
          else c0 - t.params.correct_step
        in
        let c = if c < 0 then 0 else c in
        set t (base + s_a) c;
        if c >= t.params.evict_threshold then evict t branch base ~instr
      end
    | Params.Sampled { window; samples } ->
      if t.params.enable_eviction then begin
        let direction = ctrl land bit_direction <> 0 in
        let pos = get t (base + s_b) in
        if pos < samples && taken <> direction then
          set t (base + s_c) (get t (base + s_c) + 1);
        let pos = pos + 1 in
        if
          pos = samples
          && float_of_int (samples - get t (base + s_c)) /. float_of_int samples
             < t.params.evict_bias
        then evict t branch base ~instr
        else begin
          (* the sample ends at [samples] and is evaluated; the window
             ends at [window] and the next one starts at 0 *)
          let pos = if pos <> samples && pos >= window then 0 else pos in
          if pos = samples || pos = 0 then set t (base + s_c) 0;
          set t (base + s_b) pos;
          set t (base + s_a) (countdown ~window ~samples pos)
        end
      end
  end

let observe_state t branch base ~taken ~instr =
  let pend_at = get t (base + s_pend_at) in
  if pend_at >= 0 && instr >= pend_at then begin
    let ctrl = get t (base + s_ctrl) in
    set t (base + s_ctrl)
      ((ctrl land lnot (3 lsl dep_shift)) lor (((ctrl lsr pend_shift) land 3) lsl dep_shift));
    set t (base + s_pend_at) (-1)
  end;
  let ctrl = get t (base + s_ctrl) in
  (match ctrl land 3 with
  | 0 (* Monitoring *) ->
    let stride = get t (base + t.stride) + 1 in
    if stride >= t.params.monitor_stride then begin
      set t (base + t.stride) 0;
      let seen = get t (base + t.seen) + 1 in
      set t (base + t.seen) seen;
      if taken then set t (base + s_b) (get t (base + s_b) + 1);
      if seen >= t.monitor_samples then classify t branch base ~instr
    end
    else set t (base + t.stride) stride
  | 1 (* Biased *) -> observe_biased t branch base ctrl ~taken ~instr
  | 2 (* Unbiased *) ->
    if t.params.enable_revisit then begin
      let wait = get t (base + s_a) - 1 in
      set t (base + s_a) wait;
      if wait <= 0 then begin
        enter_monitor t base;
        record t ~branch ~instr k_revisited
      end
    end
  | _ (* Disabled *) -> ());
  set t (base + s_execs) (get t (base + s_execs) + 1)

(* Guards: branch range (the table is accessed unsafely) and the
   documented non-decreasing-instr precondition. *)
let observe t ~branch ~taken ~instr =
  check_branch t ~caller:"Reactive.observe" branch;
  if instr < last_instr t then
    invalid_arg "Reactive.observe: instruction counts must be non-decreasing across calls";
  set_last_instr t instr;
  observe_state t branch (branch * slots) ~taken ~instr

(* Snapshot surface: the packed per-branch words plus the monotonicity
   cursor are the controller's complete state — every [deployed]/counter
   accessor reads only these. *)
let export_words t =
  let n = t.n_branches * slots in
  let out = Array.make (n + 1) 0 in
  out.(0) <- last_instr t;
  Array.blit t.state 0 out 1 n;
  out

(* The invariants every reachable branch state keeps, given the cursor
   [last]; [None] when they hold.  Scratch A/B/C mean what their phase
   says (see the layout above).  Every request installs the code its
   phase calls for — speculate in the biased direction while biased,
   nothing otherwise — so the pending code always equals that target,
   and the deployed code does too once no request is in flight. *)
let branch_error t words ~last b =
  let p = t.params and ms = t.monitor_samples in
  let w i = words.(1 + (b * slots) + i) in
  let ctrl = w s_ctrl and a = w s_a and bw = w s_b and c = w s_c and pend_at = w s_pend_at in
  let sel = w s_selections and ev = w s_evictions and seen = w t.seen and stride = w t.stride in
  let phase = ctrl land 3 in
  let dep = (ctrl lsr dep_shift) land 3 and pend = (ctrl lsr pend_shift) land 3 in
  let target =
    if phase <> phase_biased then 0 else if ctrl land bit_direction <> 0 then 3 else 1
  in
  let within lo x hi = lo <= x && x <= hi in
  let rec initial i = i = slots || (w i = (if i = s_pend_at then -1 else 0) && initial (i + 1)) in
  let counters_ok =
    match phase with
    | 0 (* Monitoring *) ->
      within 0 seen (ms - 1) && within 0 bw seen && within 0 stride (p.monitor_stride - 1)
    | 1 (* Biased *) -> (
      match p.eviction_mode with
      | Params.Continuous -> within 0 a (p.evict_threshold - 1) && bw = 0 && c = 0
      | Params.Sampled { window; samples } ->
        (within 0 bw (window - 1) || bw = samples)
        && if bw >= samples then c = 0 else within 0 c bw)
    | 2 (* Unbiased *) ->
      (if p.enable_revisit then within 1 a p.wait_period else a = p.wait_period)
      && within 0 bw ms && c = 0
    | _ (* Disabled *) ->
      seen = ms && within 0 bw ms && stride = 0 && sel = p.oscillation_limit
  in
  let countdown_ok =
    match p.eviction_mode with
    | Params.Sampled { window; samples } when phase = phase_biased ->
      a = countdown ~window ~samples bw
    | _ -> true
  in
  let deployment_ok =
    let latency = p.optimization_latency in
    if latency = 0 then pend_at = -1 && pend = 0 && dep = target
    else
      dep <> 2 && pend = target
      && if pend_at = -1 then dep = target else within latency pend_at (last + latency)
  in
  if ctrl land lnot 127 <> 0 then Some "unknown control bits"
  else if w s_execs < 0 || (w s_execs = 0 && not (initial 0)) then
    Some "execution count inconsistent with the state"
  else if not (within 0 sel p.oscillation_limit) then
    Some "selections outside [0, oscillation_limit]"
  else if not (within 0 ev sel) then Some "evictions outside [0, selections]"
  else if sel - ev <> Bool.to_int (phase = phase_biased) then
    Some "selections and evictions disagree with the phase"
  else if ev > 0 && not p.enable_eviction then Some "evictions with eviction disabled"
  else if not counters_ok then Some "phase counters out of range"
  else if not countdown_ok then Some "sampled-eviction countdown disagrees with the window position"
  else if not deployment_ok then Some "deployed or pending code inconsistent with the phase"
  else None

let validate_words t words =
  if Array.length words <> (t.n_branches * slots) + 1 then
    Error "state word count does not match this controller"
  else
    let error b =
      Option.map (Printf.sprintf "branch %d: %s" b) (branch_error t words ~last:words.(0) b)
    in
    match List.find_map error (List.init t.n_branches Fun.id) with
    | Some msg -> Error msg
    | None -> Ok ()

let import_words t words =
  let n = t.n_branches * slots in
  (match validate_words t words with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Reactive.import_words: " ^ msg));
  set_last_instr t words.(0);
  Array.blit words 1 t.state 0 n

(* ---------------------------------------------------------------------- *)
(* The batched replay kernel                                               *)
(* ---------------------------------------------------------------------- *)

type score = {
  mutable instr : int;
  mutable correct : int;
  mutable incorrect : int;
  mutable last_misspec : int;
  mutable slow : int;
}

let score () = { instr = 0; correct = 0; incorrect = 0; last_misspec = 0; slow = 0 }

let score_event s ~taken ~instr code =
  if code land 1 = 1 then
    if taken = (code land 2 = 2) then s.correct <- s.correct + 1
    else begin
      s.incorrect <- s.incorrect + 1;
      s.last_misspec <- instr
    end

(* Literal copies of [Rs_behavior.Trace_store]'s event layouts — the
   word (bit 0 taken, bits 1-20 instruction delta, bits 21+ branch id)
   and the 2-byte cell (the word's bits 0-3, then a 12-bit branch id),
   read with the same native-endian 16-bit load: this library sits
   below the trace store, and the dev profile's [-opaque] would keep a
   call into it from ever being inlined.  The kernel tests decode
   events packed by [Trace_store.of_events] at the field limits, and
   cell recordings against the words they decode to, so the copies
   cannot drift silently. *)
let delta_mask = (1 lsl 20) - 1
let branch_shift = 21
let cell_branch_shift = 4
let cell_delta_mask = 7

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

let word_of_cell c = ((c lsr cell_branch_shift) lsl branch_shift) lor (c land 15)

(* One event's fast-path step, shared by both spans below.  An event
   takes the fast path when its branch is in range, it did not
   misspeculate, no pending deployment activates at [at], its
   instruction count, and its new scratch A stays inside its table
   range; all but the first fold into one sign test.  Such an event's
   whole effect is A, B, [execs] and a correct speculation if one was
   deployed — the same as [observe_state] on any state the FSM can
   reach — and the result is that speculation (0 or 1).  Any other
   event returns -1 and changes nothing.  Closure conversion inlines it
   into each span, so no call remains in either loop (the object code
   holds only the GC poll) and the spans' refs stay unboxed locals. *)
let[@inline] fast_event state tbl n ~branch ~taken ~at =
  if branch >= n then -1
  else begin
    let base = branch * slots in
    let ctrl = Array.unsafe_get state (base + s_ctrl) in
    let spec = (ctrl lsr dep_shift) land 1 in
    let miss = spec land (taken lxor ((ctrl lsr (dep_shift + 1)) land 1)) in
    let pend_at = Array.unsafe_get state (base + s_pend_at) in
    let e = ((ctrl land 15) lsl 1 lor taken) lsl 2 in
    let a = Array.unsafe_get state (base + s_a) + Array.unsafe_get tbl e in
    (* negative iff: A leaves [lo, hi), a pending deployment activates
       ([pend_at >= 0] and [at >= pend_at]), or a misspeculation *)
    let slow =
      (a - Array.unsafe_get tbl (e + 2))
      lor (Array.unsafe_get tbl (e + 3) - 1 - a)
      lor lnot (pend_at lor (at - pend_at))
      lor -miss
    in
    if slow < 0 then -1
    else begin
      Array.unsafe_set state (base + s_a) (a land lnot (a asr (Sys.int_size - 1)));
      Array.unsafe_set state (base + s_b)
        (Array.unsafe_get state (base + s_b) + Array.unsafe_get tbl (e + 1));
      Array.unsafe_set state (base + s_execs) (Array.unsafe_get state (base + s_execs) + 1);
      spec
    end
  end

(* The call-free inner loops, one per layout.  Each runs events
   [i, len) for as long as each one takes the fast path, writes the
   running instruction count and correct count back to [s], and
   returns the index of the first event that does not ([len] if
   none).  The cell load and decode cost the cell span 0.3-0.5
   ns/event over the word span on the same events (5-7 ns/event,
   2-vCPU x86-64); stepping a byte offset or two cells per iteration
   did not narrow it. *)
let fast_span t s chunk i len =
  let state = t.state and tbl = t.fast and n = t.n_branches in
  let instr = ref s.instr and correct = ref s.correct in
  let i = ref i and stop = ref len in
  while !i < !stop do
    let w = Array.unsafe_get chunk !i in
    let at = !instr + ((w lsr 1) land delta_mask) in
    let spec = fast_event state tbl n ~branch:(w lsr branch_shift) ~taken:(w land 1) ~at in
    if spec < 0 then stop := !i
    else begin
      correct := !correct + spec;
      instr := at;
      incr i
    end
  done;
  s.instr <- !instr;
  s.correct <- !correct;
  !i

let cells_span t s cells i len =
  let state = t.state and tbl = t.fast and n = t.n_branches in
  let instr = ref s.instr and correct = ref s.correct in
  let i = ref i and stop = ref len in
  while !i < !stop do
    let c = get16 cells (2 * !i) in
    let at = !instr + ((c lsr 1) land cell_delta_mask) in
    let spec = fast_event state tbl n ~branch:(c lsr cell_branch_shift) ~taken:(c land 1) ~at in
    if spec < 0 then stop := !i
    else begin
      correct := !correct + spec;
      instr := at;
      incr i
    end
  done;
  s.instr <- !instr;
  s.correct <- !correct;
  !i

(* One event through the generic machine, scored as [score_event] does
   and counted in [s.slow]. *)
let slow_event t s w =
  let branch = w lsr branch_shift in
  let instr = s.instr + ((w lsr 1) land delta_mask) in
  if branch >= t.n_branches then begin
    set_last_instr t s.instr;
    invalid_arg "Reactive.step_chunk: branch out of range"
  end;
  let taken = w land 1 = 1 in
  let base = branch * slots in
  let code = (get t (base + s_ctrl) lsr dep_shift) land 3 in
  observe_state t branch base ~taken ~instr;
  s.instr <- instr;
  s.slow <- s.slow + 1;
  score_event s ~taken ~instr code

(* The observer's loop: each event is handed to [f] with the decision
   it runs under, then applied as the hookless loop would, one event at
   a time.  An out-of-range branch reaches [slow_event], which raises,
   without a call to [f]. *)
let observe_chunk t s f chunk len =
  for i = 0 to len - 1 do
    let w = Array.unsafe_get chunk i in
    let branch = w lsr branch_shift in
    if branch < t.n_branches then
      f ~branch ~taken:(w land 1 = 1)
        ~instr:(s.instr + ((w lsr 1) land delta_mask))
        ~code:((get t ((branch * slots) + s_ctrl) lsr dep_shift) land 3);
    if fast_span t s chunk i (i + 1) = i then slow_event t s w
  done

(* Deltas are unsigned, so every event's instr is at least [s.instr]:
   one check covers the chunk. *)
let check_chunk t s len capacity =
  if len < 0 || len > capacity then invalid_arg "Reactive.step_chunk: bad chunk length";
  if s.instr < last_instr t then
    invalid_arg "Reactive.step_chunk: instruction counts must be non-decreasing across calls"

let step_chunk ?observer t s chunk len =
  check_chunk t s len (Array.length chunk);
  (match observer with
  | Some f -> observe_chunk t s f chunk len
  | None ->
    let i = ref (fast_span t s chunk 0 len) in
    while !i < len do
      slow_event t s (Array.unsafe_get chunk !i);
      i := fast_span t s chunk (!i + 1) len
    done);
  set_last_instr t s.instr

let step_cells t s cells len =
  check_chunk t s len (Bytes.length cells / 2);
  let i = ref (cells_span t s cells 0 len) in
  while !i < len do
    slow_event t s (word_of_cell (get16 cells (2 * !i)));
    i := cells_span t s cells (!i + 1) len
  done;
  set_last_instr t s.instr
