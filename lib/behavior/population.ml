type spec = { id : int; behavior : Behavior.t; weight : float }

type t = spec array

let create specs =
  if Array.length specs = 0 then invalid_arg "Population.create: empty population";
  Array.iteri
    (fun i s ->
      if s.id <> i then invalid_arg "Population.create: ids must be dense and in order";
      if s.weight <= 0.0 || not (Float.is_finite s.weight) then
        invalid_arg "Population.create: weights must be positive and finite")
    specs;
  specs

let size = Array.length
let spec t i = t.(i)

module Alias = struct
  type sampler = { prob : float array; alias : int array }

  (* Vose's alias method: linear-time table construction, O(1) draws. *)
  let of_weights weights =
    let n = Array.length weights in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let prob = Array.make n 0.0 in
    let alias = Array.make n 0 in
    let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
    let small = Queue.create () in
    let large = Queue.create () in
    Array.iteri (fun i p -> Queue.add i (if p < 1.0 then small else large)) scaled;
    while not (Queue.is_empty small) && not (Queue.is_empty large) do
      let s = Queue.pop small in
      let l = Queue.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
      Queue.add l (if scaled.(l) < 1.0 then small else large)
    done;
    let flush q =
      Queue.iter
        (fun i ->
          prob.(i) <- 1.0;
          alias.(i) <- i)
        q
    in
    flush small;
    flush large;
    { prob; alias }

  let prepare t = of_weights (Array.map (fun s -> s.weight) t)

  (* One draw per event in every stream generator: the acceptance test is
     [Prng.float rng 1.0 < prob.(i)] spelled via [unit_bits]/[two53]
     (bit-identical, see Prng.below) so no float crosses a function
     boundary and the draw allocates nothing. *)
  let draw s rng =
    let n = Array.length s.prob in
    let i = Rs_util.Prng.int rng n in
    if float_of_int (Rs_util.Prng.unit_bits rng) < Array.unsafe_get s.prob i *. Rs_util.Prng.two53
    then i
    else Array.unsafe_get s.alias i
end
