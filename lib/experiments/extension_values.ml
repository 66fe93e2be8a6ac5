module Prng = Rs_util.Prng
module VM = Rs_behavior.Value_model
module Reactive = Rs_core.Reactive
module Types = Rs_core.Types
module Table = Rs_util.Table

type row = {
  label : string;
  correct : float;
  incorrect : float;
  selections : int;
  evictions : int;
}

type t = { rows : row list }

let n_sites = 160
let events = 4_000_000

(* A small population of load sites with a behaviour mix mirroring the
   branch study: mostly invariant, some phase changes, some never
   invariant. *)
let make_sites rng n =
  Array.init n (fun i ->
      let r = Prng.float rng 1.0 in
      if r < 0.45 then VM.Constant (i * 17)
      else if r < 0.62 then
        VM.Noisy_constant { value = i; other = i + 1; p_other = 0.0004 +. Prng.float rng 0.002 }
      else if r < 0.72 then
        VM.Phase_constant
          { first = 32; second = 48; switch_at = 8_000 + Prng.int rng 25_000 }
      else if r < 0.85 then
        VM.Sticky
          { values = Array.init (2 + Prng.int rng 6) Fun.id; p_stay = 0.5 +. Prng.float rng 0.4 }
      else VM.Counter { start = 0; stride = 1 + Prng.int rng 3 })

(* The load stream both policies consume: which site each load comes
   from (drawn by weight) and the value it produces.  Equal seeds give
   equal streams, so every policy sees the same loads. *)
type stream = {
  models : VM.t array;
  rngs : Prng.t array;
  execs : int array;  (** Loads issued per site so far. *)
  last : int array;  (** Each site's most recent value. *)
  sampler : Rs_behavior.Stream.Alias.t;
  pick : Prng.t;
}

let stream ~sites ~weights ~seed =
  {
    models = sites;
    rngs = Array.mapi (fun i _ -> Prng.create ((seed * 7919) + i)) sites;
    execs = Array.make (Array.length sites) 0;
    last = Array.map VM.initial sites;
    sampler = Rs_behavior.Stream.Alias.of_weights weights;
    pick = Prng.create (seed * 31 + 5);
  }

(* Issue [events] loads, calling [f i v] when site [i] produces [v];
   [s.last.(i)] still holds the site's previous value during the call. *)
let iter_loads s ~events f =
  for _ = 1 to events do
    let i = Rs_behavior.Stream.Alias.draw s.sampler s.pick in
    let v =
      VM.next s.models.(i) ~rng:s.rngs.(i) ~exec_index:s.execs.(i) ~prev:s.last.(i)
    in
    s.execs.(i) <- s.execs.(i) + 1;
    f i v;
    s.last.(i) <- v
  done

let run_policy ~label ~params ~sites ~weights ~seed =
  let n = Array.length sites in
  let loads = stream ~sites ~weights ~seed in
  (* Per site: the constant baked into the speculative code, and the
     value captured at selection time. *)
  let assumed = Array.make n 0 in
  let pending_assumed = Array.make n 0 in
  let on_transition (tr : Types.transition) =
    match tr.kind with
    | Types.Selected ->
      (* the optimizer bakes in the value it observed when it decided *)
      pending_assumed.(tr.branch) <- loads.last.(tr.branch)
    | _ -> ()
  in
  let c = Reactive.create ~on_transition ~n_branches:n params in
  let correct = ref 0 and incorrect = ref 0 in
  let instr = ref 0 in
  iter_loads loads ~events (fun i v ->
      instr := !instr + 6;
      let d = Reactive.deployed c i in
      (* only the positive direction means anything for value speculation:
         "reliably produces the assumed value".  A branch-FSM selection in
         the negative direction ("reliably produces something else") has no
         code-generation counterpart and is ignored. *)
      let speculating = d.Types.speculate && d.direction in
      if speculating then begin
        (* newly deployed code starts using the value captured at its
           selection *)
        assumed.(i) <- pending_assumed.(i);
        if v = assumed.(i) then incr correct else incr incorrect
      end;
      (* the observation stream: does the load still produce the value the
         (current or would-be) speculative code would assume? *)
      let prediction = if speculating then assumed.(i) else loads.last.(i) in
      Reactive.observe c ~branch:i ~taken:(v = prediction) ~instr:!instr);
  let selections = ref 0 and evictions = ref 0 in
  for i = 0 to n - 1 do
    selections := !selections + Reactive.selections c i;
    evictions := !evictions + Reactive.evictions c i
  done;
  {
    label;
    correct = float_of_int !correct /. float_of_int events;
    incorrect = float_of_int !incorrect /. float_of_int events;
    selections = !selections;
    evictions = !evictions;
  }

(* Oracle: per site, the modal value over the whole run, applied when its
   share reaches the 99% threshold. *)
let run_oracle ~sites ~weights ~seed =
  let n = Array.length sites in
  let counts = Array.init n (fun _ -> Hashtbl.create 8) in
  let loads = stream ~sites ~weights ~seed in
  iter_loads loads ~events (fun i v ->
      let tbl = counts.(i) in
      Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)));
  let execs = loads.execs in
  let correct = ref 0 and incorrect = ref 0 in
  let selections = ref 0 in
  for i = 0 to n - 1 do
    if execs.(i) > 0 then begin
      let modal = Hashtbl.fold (fun _ c best -> max c best) counts.(i) 0 in
      if float_of_int modal /. float_of_int execs.(i) >= 0.99 then begin
        incr selections;
        correct := !correct + modal;
        incorrect := !incorrect + execs.(i) - modal
      end
    end
  done;
  {
    label = "self-training modal value @99%";
    correct = float_of_int !correct /. float_of_int events;
    incorrect = float_of_int !incorrect /. float_of_int events;
    selections = !selections;
    evictions = 0;
  }

let run ctx =
  let seed = ctx.Context.seed in
  let rng = Prng.create (seed + 99) in
  let sites = make_sites rng n_sites in
  let weights =
    Array.init n_sites (fun i -> 1.0 /. ((float_of_int i +. 1.0) ** 0.6))
  in
  let params = Context.params ctx in
  let rows =
    [
      run_oracle ~sites ~weights ~seed;
      run_policy ~label:"reactive (Table 2)" ~params ~sites ~weights ~seed;
      run_policy ~label:"no eviction (open loop)"
        ~params:{ params with enable_eviction = false }
        ~sites ~weights ~seed;
    ]
  in
  { rows }

let render t =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: load-value speculation control (%d load sites, %s loads)" n_sites
           (Table.fmt_int events))
      ~columns:
        [
          ("policy", Table.Left);
          ("constants applied", Table.Right);
          ("wrong values", Table.Right);
          ("selections", Table.Right);
          ("evictions", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.label;
          Table.fmt_pct ~decimals:1 r.correct;
          Table.fmt_pct ~decimals:3 r.incorrect;
          Table.fmt_int r.selections;
          Table.fmt_int r.evictions;
        ])
    t.rows;
  Table.render tbl
  ^ "  the same FSM controls value speculation: invariant loads get their constants,\n\
    \  phase-changing loads are evicted and re-learned with the new constant, and the\n\
    \  open loop keeps substituting stale constants after values move on.\n"
