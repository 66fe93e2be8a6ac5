(* One shard of the service's controller state.

   Branch [b] is owned by shard [b mod shards] and carries local id
   [b / shards], so every shard holds a dense, independent
   Reactive state table over just its own branches.  The controller's
   per-branch FSM reads nothing but that branch's own state words, which
   is what makes the partition exact: the deployed decision for a branch
   depends only on the subsequence of events at that branch (with their
   global instruction counts), and that subsequence is preserved
   verbatim by the demultiplexer.  Hence no cross-shard locks — and
   byte-identical QUERY answers at any shard count.

   A per-shard mutex serialises the only two accessors that touch the
   table: the owning worker's [apply] (one batch at a time, bounded by
   the 32k-word frame cap) and the I/O loop's [query]/[export]/[import].
   Busy-time (monotonic clock) and event counters are written by the
   worker alone and read racily by the stats renderer; a stale read is
   harmless. *)

module Reactive = Rs_core.Reactive

type t = {
  mutex : Mutex.t;
  ctrl : Reactive.t;
  index : int;
  owned : int;
  mutable events : int;
  mutable batches : int;
  mutable busy_ns : int;
}

let owned_count ~n_branches ~shards ~index = (n_branches - index + shards - 1) / shards

let create ~params ~n_branches ~shards ~index =
  if shards <= 0 || index < 0 || index >= shards then
    invalid_arg "Shard.create: index out of range";
  let owned = owned_count ~n_branches ~shards ~index in
  if owned <= 0 then invalid_arg "Shard.create: shard owns no branches";
  {
    mutex = Mutex.create ();
    ctrl = Reactive.create ~n_branches:owned params;
    index;
    owned;
    events = 0;
    batches = 0;
    busy_ns = 0;
  }

let index t = t.index
let owned t = t.owned
let events t = t.events
let batches t = t.batches
let busy_ns t = t.busy_ns

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let apply t ~ev ~instr ~len =
  let t0 = now_ns () in
  Mutex.protect t.mutex (fun () ->
      for i = 0 to len - 1 do
        let e = Array.unsafe_get ev i in
        Reactive.observe t.ctrl ~branch:(e lsr 1) ~taken:(e land 1 = 1)
          ~instr:(Array.unsafe_get instr i)
      done);
  t.events <- t.events + len;
  t.batches <- t.batches + 1;
  let ns = now_ns () - t0 in
  t.busy_ns <- t.busy_ns + ns;
  ns

let query t ~local = Mutex.protect t.mutex (fun () -> Reactive.deployed_code t.ctrl local)
let export t = Mutex.protect t.mutex (fun () -> Reactive.export_words t.ctrl)
let import t words = Mutex.protect t.mutex (fun () -> Reactive.import_words t.ctrl words)
