module Static = Rs_core.Static

type t = {
  execs : int array;
  taken : int array;
  (* window_taken.((w * n) + b): taken count of branch [b] after its
     first [windows.(w)] executions (or at end of run if it never got
     that far).  One flat preallocated array instead of an array per
     window keeps collection off the minor heap. *)
  window_taken : int array;
  windows : int array;
  n : int;
  total_events : int;
  total_instructions : int;
}

let window_index t window =
  let n = Array.length t.windows in
  let rec go i =
    if i >= n then invalid_arg "Profile: unknown window length"
    else if t.windows.(i) = window then i
    else go (i + 1)
  in
  go 0

(* The event layouts, decoded inline: under the dev profile's [-opaque]
   each [Trace_store.packed_*] accessor would be a call per event.  A
   word is bit 0 taken, bits 21+ the branch id; a cell (a recording's
   2-byte event) is bit 0 taken, bits 4-15 the branch id, read with the
   trace store's native-endian 16-bit load.  The figure2 golden and the
   cell-versus-word profile test pin both. *)
let branch_shift = 21
let cell_branch_shift = 4

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

(* One event of branch [b] with outcome bit [tk], shared by the word
   and cell loops: the per-branch execution index is reconstructed with
   its own counters, and the outcome counted without a branch on it. *)
let[@inline] count_event ~execs ~taken ~window_taken ~next_window ~windows ~n_windows ~n b tk =
  let e = Array.unsafe_get execs b in
  Array.unsafe_set execs b (e + 1);
  Array.unsafe_set taken b (Array.unsafe_get taken b + tk);
  let nw = Array.unsafe_get next_window b in
  if nw < n_windows && e + 1 = Array.unsafe_get windows nw then begin
    Array.unsafe_set window_taken ((nw * n) + b) (Array.unsafe_get taken b);
    Array.unsafe_set next_window b (nw + 1)
  end

let collect ?(windows = Static.windows) ?trace pop config =
  Array.iteri
    (fun i w ->
      if w <= 0 || (i > 0 && w <= windows.(i - 1)) then
        invalid_arg "Profile.collect: windows must be positive and strictly increasing")
    windows;
  let n_windows = Array.length windows in
  let n = Rs_behavior.Population.size pop in
  let taken = Array.make n 0 in
  let window_taken = Array.make (n_windows * n) (-1) in
  let next_window = Array.make n 0 in
  let execs = Array.make n 0 in
  (* one loop per layout, on plain integers only: a cell recording is
     read in place *)
  Rs_behavior.Trace_store.iter_chunks ~caller:"Profile.collect" ?trace pop config
    ~cells:(fun cells len ->
      for i = 0 to len - 1 do
        let c = get16 cells (2 * i) in
        count_event ~execs ~taken ~window_taken ~next_window ~windows ~n_windows ~n
          (c lsr cell_branch_shift) (c land 1)
      done)
    (fun chunk len ->
      for i = 0 to len - 1 do
        let w = Array.unsafe_get chunk i in
        count_event ~execs ~taken ~window_taken ~next_window ~windows ~n_windows ~n
          (w lsr branch_shift) (w land 1)
      done);
  (* Branches that never reached a checkpoint: the "window" is their whole
     life, so a window-trained policy sees exactly their full counts. *)
  for b = 0 to n - 1 do
    for w = next_window.(b) to n_windows - 1 do
      window_taken.((w * n) + b) <- taken.(b)
    done
  done;
  {
    execs;
    taken;
    window_taken;
    windows;
    n;
    total_events = config.length;
    total_instructions = Rs_behavior.Stream.total_instructions config;
  }

let windows t = t.windows
let n_branches t = Array.length t.execs
let total_events t = t.total_events
let total_instructions t = t.total_instructions

let counts t b = { Static.execs = t.execs.(b); taken = t.taken.(b) }
let execs_of t b = t.execs.(b)
let taken_of t b = t.taken.(b)

let counts_in_window t b ~window =
  let w = window_index t window in
  let execs = min t.execs.(b) window in
  { Static.execs; taken = (if execs = 0 then 0 else t.window_taken.((w * t.n) + b)) }

let counts_after_window t b ~window =
  let w = window_index t window in
  let in_execs = min t.execs.(b) window in
  let in_taken = if in_execs = 0 then 0 else t.window_taken.((w * t.n) + b) in
  { Static.execs = t.execs.(b) - in_execs; taken = t.taken.(b) - in_taken }
