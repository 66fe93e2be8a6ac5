module Params = Rs_core.Params
module Types = Rs_core.Types
module Reactive = Rs_core.Reactive
module TS = Rs_behavior.Trace_store

(* The four states of Figure 4(b), each carrying its own counters:
   monitoring counts sampled executions and how many were taken;
   biased keeps the continuous eviction counter, or the sampled
   window's position and misses; unbiased counts down to the revisit
   arc; disabled is retired by the oscillation limit. *)
type phase =
  | Monitoring of { mutable seen : int; mutable taken : int; mutable stride_pos : int }
  | Biased of { direction : bool; mutable counter : int; mutable pos : int; mutable misses : int }
  | Unbiased of { mutable wait_left : int }
  | Disabled

type branch = {
  mutable phase : phase;
  mutable execs : int;
  mutable deployed : Types.decision;  (* the code the re-optimizer installed *)
  mutable pending : (int * Types.decision) option;
      (* a request still being compiled, and the instruction count it lands at *)
  mutable selections : int;
  mutable evictions : int;
}

type t = {
  params : Params.t;
  branches : branch array;
  on_transition : Types.transition -> unit;
  mutable log : Types.transition list;  (* newest first *)
}

let monitoring () = Monitoring { seen = 0; taken = 0; stride_pos = 0 }

let create ?(on_transition = ignore) ~n_branches params =
  let fresh _ =
    {
      phase = monitoring ();
      execs = 0;
      deployed = Types.no_speculation;
      pending = None;
      selections = 0;
      evictions = 0;
    }
  in
  { params; branches = Array.init n_branches fresh; on_transition; log = [] }

let deployed t b = t.branches.(b).deployed

let record t b br ~instr kind =
  let tr = { Types.branch = b; instr; exec_index = br.execs; kind } in
  t.log <- tr :: t.log;
  t.on_transition tr

(* Ask the re-optimizer for new code.  It lands [optimization_latency]
   instructions later; a newer request replaces one still in flight. *)
let request t br ~instr decision =
  if t.params.optimization_latency = 0 then begin
    br.deployed <- decision;
    br.pending <- None
  end
  else br.pending <- Some (instr + t.params.optimization_latency, decision)

(* End of a monitoring period: select the branch if its bias reaches the
   selection threshold — unless it has already been selected
   [oscillation_limit] times, which retires it — else declare it
   unbiased. *)
let classify t b br ~seen ~taken ~instr =
  let p = t.params in
  let bias = float_of_int (max taken (seen - taken)) /. float_of_int seen in
  if bias < p.selection_threshold then begin
    br.phase <- Unbiased { wait_left = p.wait_period };
    record t b br ~instr Types.Declared_unbiased
  end
  else if br.selections >= p.oscillation_limit then begin
    br.phase <- Disabled;
    record t b br ~instr Types.Capped;
    if br.deployed.speculate || br.pending <> None then
      request t br ~instr Types.no_speculation
  end
  else begin
    let direction = 2 * taken >= seen in
    br.phase <- Biased { direction; counter = 0; pos = 0; misses = 0 };
    br.selections <- br.selections + 1;
    request t br ~instr { Types.speculate = true; direction };
    record t b br ~instr Types.Selected
  end

let evict t b br ~instr =
  br.evictions <- br.evictions + 1;
  record t b br ~instr Types.Evicted;
  br.phase <- monitoring ();
  request t br ~instr Types.no_speculation

let observe t ~branch:b ~taken ~instr =
  let p = t.params and br = t.branches.(b) in
  (match br.pending with
  | Some (at, decision) when instr >= at ->
    br.deployed <- decision;
    br.pending <- None
  | _ -> ());
  (match br.phase with
  | Monitoring m ->
    (* sample one execution in every [monitor_stride] *)
    m.stride_pos <- m.stride_pos + 1;
    if m.stride_pos >= p.monitor_stride then begin
      m.stride_pos <- 0;
      m.seen <- m.seen + 1;
      if taken then m.taken <- m.taken + 1;
      if m.seen >= Params.monitor_samples p then
        classify t b br ~seen:m.seen ~taken:m.taken ~instr
    end
  | Biased s when br.deployed.speculate && p.enable_eviction -> (
    (* eviction watches the deployed speculative code only *)
    let miss = taken <> s.direction in
    match p.eviction_mode with
    | Params.Continuous ->
      (* +misspec_step on a misspeculation, -correct_step otherwise,
         floored at 0; evict on reaching evict_threshold *)
      s.counter <-
        max 0 (if miss then s.counter + p.misspec_step else s.counter - p.correct_step);
      if s.counter >= p.evict_threshold then evict t b br ~instr
    | Params.Sampled { window; samples } ->
      (* score the first [samples] executions of every [window]; evict
         when their bias falls below evict_bias *)
      if s.pos < samples && miss then s.misses <- s.misses + 1;
      s.pos <- s.pos + 1;
      if s.pos = samples then begin
        let bias = float_of_int (samples - s.misses) /. float_of_int samples in
        if bias < p.evict_bias then evict t b br ~instr else s.misses <- 0
      end
      else if s.pos >= window then begin
        s.pos <- 0;
        s.misses <- 0
      end)
  | Unbiased u when p.enable_revisit ->
    u.wait_left <- u.wait_left - 1;
    if u.wait_left <= 0 then begin
      br.phase <- monitoring ();
      record t b br ~instr Types.Revisited
    end
  | Biased _ | Unbiased _ | Disabled -> ());
  br.execs <- br.execs + 1

let code_of (d : Types.decision) = Bool.to_int d.speculate lor (Bool.to_int d.direction lsl 1)

let agrees t c =
  let same b br =
    Reactive.deployed c b = br.deployed
    && Reactive.selections c b = br.selections
    && Reactive.evictions c b = br.evictions
    && Reactive.touched c b = (br.execs > 0)
    && Reactive.capped c b = (br.phase = Disabled)
  in
  Array.for_all Fun.id (Array.mapi same t.branches)

let check ~label ~trace pop cfg params =
  let transitions = ref [] in
  let r =
    Engine.run ~label ~on_transition:(fun tr -> transitions := tr :: !transitions) ~trace pop cfg
      params
  in
  let reference = create ~n_branches:(Reactive.n_branches r.controller) params in
  let s = Reactive.score () in
  let events = ref 0 in
  TS.iter_chunks ~caller:"Reference.check" ~trace pop cfg (fun chunk len ->
      for i = 0 to len - 1 do
        let branch = TS.packed_branch chunk.(i) and taken = TS.packed_taken chunk.(i) in
        s.instr <- s.instr + TS.packed_delta chunk.(i);
        Reactive.score_event s ~taken ~instr:s.instr (code_of (deployed reference branch));
        observe reference ~branch ~taken ~instr:s.instr;
        incr events
      done);
  ( !events = r.total_events
    && s.correct = r.correct
    && s.incorrect = r.incorrect
    && s.last_misspec = r.last_misspec
    && !transitions = reference.log
    && agrees reference r.controller,
    r )
