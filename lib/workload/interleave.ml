module Prng = Rs_util.Prng
module Behavior = Rs_behavior.Behavior
module Population = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module TS = Rs_behavior.Trace_store

type schedule = Round_robin | Bursty

let schedule_name = function Round_robin -> "round_robin" | Bursty -> "bursty"

let schedules = [ Round_robin; Bursty ]

let n_contexts = 3
let instr_per_branch = 5.0

(* Per-context branch directions conflict by construction: a slot's base
   direction is a deterministic hash of (seed, slot), and odd-parity
   contexts take the opposite direction — so an aliased (shared) state
   table sees exactly a 2-in-3 mixture at every slot while a per-context
   table sees a clean 99.7% bias. *)
let slot_direction ~seed ~context ~slot =
  Hashtbl.hash (seed, slot) land 1 = 1 <> (context mod 2 = 1)

type merged = {
  shared : Population.t * Stream.config * TS.t;
      (** All contexts aliased onto one state table of [branches] slots. *)
  split : Population.t * Stream.config * TS.t;
      (** Disjoint per-context tables: id [context * branches + slot]. *)
  per_context_events : int array;  (** Events contributed by each context. *)
}

let branches_per_context ~scale = max 4 (Benchmark.scale_count scale 16)

(* Execution budget per branch: enough monitor windows, an eviction run
   and change-of-mind headroom under the interleave-compressed params
   the experiment runs with (see Rs_experiments.Interleave). *)
let execs_per_branch = 6_000

let context_population ~seed ~scale ~context =
  let n = branches_per_context ~scale in
  Population.create
    (Array.init n (fun id ->
         let dir = slot_direction ~seed ~context ~slot:id in
         let p = if dir then 0.997 else 0.003 in
         { Population.id; behavior = Behavior.Stationary p; weight = 1.0 }))

let dummy_population n =
  Population.create
    (Array.init n (fun id -> { Population.id; behavior = Behavior.Stationary 0.5; weight = 1.0 }))

let build schedule ~seed ~scale =
  if scale <= 0.0 || scale > 1.0 then invalid_arg "Interleave.build: scale must be in (0, 1]";
  let n = branches_per_context ~scale in
  let per_ctx_len = n * execs_per_branch in
  (* Materialise each context's stream once, as flat packed columns. *)
  let ctx_branch = Array.init n_contexts (fun _ -> Array.make per_ctx_len 0) in
  let ctx_taken = Array.init n_contexts (fun _ -> Bytes.make per_ctx_len '\000') in
  let ctx_delta = Array.init n_contexts (fun _ -> Array.make per_ctx_len 0) in
  for c = 0 to n_contexts - 1 do
    let pop = context_population ~seed ~scale ~context:c in
    let cfg = { Stream.seed = (seed * 97) + (7 * c); instr_per_branch; length = per_ctx_len } in
    let pos = ref 0 in
    let last = ref 0 in
    ignore
      (Stream.iter_raw pop cfg (fun ~branch ~taken ~exec_index:_ ~instr ->
           let i = !pos in
           ctx_branch.(c).(i) <- branch;
           Bytes.unsafe_set ctx_taken.(c) i (if taken then '\001' else '\000');
           ctx_delta.(c).(i) <- instr - !last;
           last := instr;
           pos := i + 1)
        : int array)
  done;
  (* Merge order: a context id per merged slot, fully deterministic. *)
  let total = n_contexts * per_ctx_len in
  let order = Array.make total 0 in
  (match schedule with
  | Round_robin -> Array.iteri (fun i _ -> order.(i) <- i mod n_contexts) order
  | Bursty ->
    let rng = Prng.create ((seed * 8_191) + 5) in
    let remaining = Array.make n_contexts per_ctx_len in
    let burst_base = 2 * n * 800 in
    let pos = ref 0 in
    let c = ref 0 in
    while !pos < total do
      (* next context with events left, in rotation *)
      while remaining.(!c) = 0 do
        c := (!c + 1) mod n_contexts
      done;
      let burst = burst_base + Prng.int rng burst_base in
      let take = min burst remaining.(!c) in
      for _ = 1 to take do
        order.(!pos) <- !c;
        incr pos
      done;
      remaining.(!c) <- remaining.(!c) - take;
      c := (!c + 1) mod n_contexts
    done);
  let per_context_events = Array.make n_contexts 0 in
  Array.iter (fun c -> per_context_events.(c) <- per_context_events.(c) + 1) order;
  let trace ~id_of ~n_branches ~cfg_seed =
    let config = { Stream.seed = cfg_seed; instr_per_branch; length = total } in
    let t =
      TS.of_events ~n_branches ~config (fun push ->
          let cursor = Array.make n_contexts 0 in
          let instr = ref 0 in
          Array.iter
            (fun c ->
              let i = cursor.(c) in
              cursor.(c) <- i + 1;
              instr := !instr + ctx_delta.(c).(i);
              push
                ~branch:(id_of ~context:c ~slot:ctx_branch.(c).(i))
                ~taken:(Bytes.unsafe_get ctx_taken.(c) i = '\001')
                ~instr:!instr)
            order)
    in
    (dummy_population n_branches, config, t)
  in
  {
    shared = trace ~id_of:(fun ~context:_ ~slot -> slot) ~n_branches:n ~cfg_seed:(seed * 11);
    split =
      trace
        ~id_of:(fun ~context ~slot -> (context * n) + slot)
        ~n_branches:(n_contexts * n) ~cfg_seed:((seed * 11) + 1);
    per_context_events;
  }
