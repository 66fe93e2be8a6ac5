(* The packed event layouts, decoded inline: under the dev profile's
   [-opaque] each [Trace_store.packed_*] accessor would be a call per
   event.  A word is bit 0 taken, bits 1-20 the instruction delta, bits
   21+ the branch id; a cell (a recording's 2-byte event, read with the
   trace store's native-endian 16-bit load) is bit 0 taken, bits 1-3
   the delta, bits 4-15 the branch id.  Each collector runs one
   [@inline] per-event body from a word loop and a cell loop.  The
   figure3 and figure9 goldens pin what both collectors compute, and
   the cell-versus-word tests pin the two loops to each other. *)
let delta_mask = (1 lsl 20) - 1
let branch_shift = 21
let cell_delta_mask = 7
let cell_branch_shift = 4

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

module Exec_blocks = struct
  type t = { block : int; series : (int, (int * float) list ref) Hashtbl.t }

  type acc = { mutable seen : int; mutable taken : int; mutable blocks : (int * float) list }

  let[@inline] event accs ~block b tk =
    match Array.unsafe_get accs b with
    | None -> ()
    | Some a ->
      a.taken <- a.taken + tk;
      a.seen <- a.seen + 1;
      if a.seen = block then begin
        let idx = List.length a.blocks in
        a.blocks <- (idx, float_of_int a.taken /. float_of_int block) :: a.blocks;
        a.seen <- 0;
        a.taken <- 0
      end

  let collect ?trace pop config ~branches ~block =
    if block <= 0 then invalid_arg "Exec_blocks.collect: block must be positive";
    (* A dense branch -> acc array instead of a hashtable lookup per
       event: [find_opt]'s option would be the loop's only allocation. *)
    let n = Rs_behavior.Population.size pop in
    (* size past the population if the caller tracks ids no event can
       reach, so those still get their (empty) series *)
    let size = List.fold_left (fun m b -> max m (b + 1)) n branches in
    let accs : acc option array = Array.make size None in
    List.iter
      (fun b ->
        if b < 0 then invalid_arg "Exec_blocks.collect: negative branch id";
        accs.(b) <- Some { seen = 0; taken = 0; blocks = [] })
      branches;
    Rs_behavior.Trace_store.iter_chunks ~caller:"Exec_blocks.collect" ?trace pop config
      ~cells:(fun cells len ->
        for i = 0 to len - 1 do
          let c = get16 cells (2 * i) in
          event accs ~block (c lsr cell_branch_shift) (c land 1)
        done)
      (fun chunk len ->
        for i = 0 to len - 1 do
          let w = Array.unsafe_get chunk i in
          event accs ~block (w lsr branch_shift) (w land 1)
        done);
    let series = Hashtbl.create 16 in
    List.iter
      (fun b ->
        match accs.(b) with
        | None -> ()
        | Some a ->
          let blocks =
            if a.seen >= block / 10 then
              (List.length a.blocks, float_of_int a.taken /. float_of_int a.seen) :: a.blocks
            else a.blocks
          in
          Hashtbl.replace series b (ref (List.rev blocks)))
      branches;
    { block; series }

  let series t b = !(Hashtbl.find t.series b)
end

module Intervals = struct
  type t = {
    buckets : int;
    min_execs : int;
    n : int;
    execs : int array;  (** [execs.((bucket * n) + branch)], flat *)
    taken : int array;
  }

  (* The cursor: the instruction count, the current bucket's row
     offset and the instruction count that starts the next bucket. *)
  type cursor = { mutable instr : int; mutable row : int; mutable next : int }

  let[@inline] event execs taken cur ~n ~width ~last_row b ~delta tk =
    cur.instr <- cur.instr + delta;
    while cur.instr >= cur.next do
      cur.row <- cur.row + n;
      cur.next <- (if cur.row = last_row then max_int else cur.next + width)
    done;
    let j = cur.row + b in
    Array.unsafe_set execs j (Array.unsafe_get execs j + 1);
    Array.unsafe_set taken j (Array.unsafe_get taken j + tk)

  let collect ?trace pop config ~buckets ~min_execs =
    if buckets <= 0 then invalid_arg "Intervals.collect: buckets must be positive";
    let n = Rs_behavior.Population.size pop in
    let total_instr = Rs_behavior.Stream.total_instructions config in
    let width = max 1 (total_instr / buckets) in
    let execs = Array.make (buckets * n) 0 in
    let taken = Array.make (buckets * n) 0 in
    (* The current bucket [min (buckets - 1) (instr / width)], kept as
       its row offset [k * n] and advanced when [instr] reaches the next
       boundary — there is none after the last bucket — instead of a
       division per event. *)
    let cur = { instr = 0; row = 0; next = (if buckets > 1 then width else max_int) } in
    let last_row = (buckets - 1) * n in
    Rs_behavior.Trace_store.iter_chunks ~caller:"Intervals.collect" ?trace pop config
      ~cells:(fun cells len ->
        for i = 0 to len - 1 do
          let c = get16 cells (2 * i) in
          event execs taken cur ~n ~width ~last_row (c lsr cell_branch_shift)
            ~delta:((c lsr 1) land cell_delta_mask) (c land 1)
        done)
      (fun chunk len ->
        for i = 0 to len - 1 do
          let w = Array.unsafe_get chunk i in
          event execs taken cur ~n ~width ~last_row (w lsr branch_shift)
            ~delta:((w lsr 1) land delta_mask) (w land 1)
        done);
    { buckets; min_execs; n; execs; taken }

  (* Classification of one branch in one bucket: 1 = biased, 0 =
     unbiased, -1 = too few executions to tell. *)
  let classify_code t ~threshold branch bucket =
    let e = t.execs.((bucket * t.n) + branch) in
    if e < t.min_execs then -1
    else begin
      let tk = t.taken.((bucket * t.n) + branch) in
      let bias = float_of_int (max tk (e - tk)) /. float_of_int e in
      if bias >= threshold then 1 else 0
    end

  let flippers t ~threshold =
    let result = ref [] in
    (* One scratch per call, shared across branches. *)
    let states = Array.make t.buckets false in
    for b = t.n - 1 downto 0 do
      (* Fill sparse buckets with the previous known classification. *)
      let any_biased = ref false in
      let any_unbiased = ref false in
      let prev = ref false in
      let known = ref false in
      for k = 0 to t.buckets - 1 do
        (match classify_code t ~threshold b k with
        | 1 ->
          prev := true;
          known := true;
          any_biased := true
        | 0 ->
          prev := false;
          known := true;
          any_unbiased := true
        | _ -> ());
        states.(k) <- !known && !prev
      done;
      if !any_biased && !any_unbiased then begin
        (* Extract maximal biased spans. *)
        let spans = ref [] in
        let start = ref (-1) in
        for k = 0 to t.buckets - 1 do
          if states.(k) && !start < 0 then start := k;
          if (not states.(k)) && !start >= 0 then begin
            spans := (!start, k - 1) :: !spans;
            start := -1
          end
        done;
        if !start >= 0 then spans := (!start, t.buckets - 1) :: !spans;
        result := (b, List.rev !spans) :: !result
      end
    done;
    !result
end
