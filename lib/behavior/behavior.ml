type t =
  | Stationary of float
  | Flip_at of { threshold : int; first : bool }
  | Phases of phase array
  | Softening of { start : float; finish : float; over : int }
  | Periodic of { region : int; p_first : float; p_second : float }
  | Global_phases of global_phase array

and phase = { length : int; p_taken : float }
and global_phase = { until_instr : int; gp_taken : float }

(* The phase lookups are top-level recursions rather than closures over
   the model, so a lookup allocates nothing: the result is the phase's
   own (already boxed) probability. *)
let rec phase_p phases n exec_index i offset =
  if i >= n - 1 then phases.(n - 1).p_taken
  else if exec_index < offset + phases.(i).length then phases.(i).p_taken
  else phase_p phases n exec_index (i + 1) (offset + phases.(i).length)

let rec global_phase_p phases n instr i =
  if i >= n - 1 then phases.(n - 1).gp_taken
  else if instr < phases.(i).until_instr then phases.(i).gp_taken
  else global_phase_p phases n instr (i + 1)

let p_taken t ~exec_index ~instr =
  match t with
  | Stationary p -> p
  | Flip_at { threshold; first } ->
    if exec_index < threshold then (if first then 1.0 else 0.0)
    else if first then 0.0
    else 1.0
  | Phases phases ->
    let n = Array.length phases in
    if n = 0 then 0.5 else phase_p phases n exec_index 0 0
  | Softening { start; finish; over } ->
    if exec_index >= over || over <= 0 then finish
    else start +. ((finish -. start) *. float_of_int exec_index /. float_of_int over)
  | Periodic { region; p_first; p_second } ->
    if region <= 0 then p_first
    else if exec_index / region mod 2 = 0 then p_first
    else p_second
  | Global_phases phases ->
    let n = Array.length phases in
    if n = 0 then 0.5 else global_phase_p phases n instr 0

(* Per-event in every stream generator: Prng.bernoulli inlined via
   [unit_bits]/[two53] (bit-identical, see Prng.below) so the probability
   never crosses a function boundary as a boxed float argument. *)
let[@inline] draw rng p =
  if p >= 1.0 then true
  else if p <= 0.0 then false
  else float_of_int (Rs_util.Prng.unit_bits rng) < p *. Rs_util.Prng.two53

(* Every model but a softening ramp returns a probability it already
   holds boxed; the ramp's is computed here, unboxed, rather than boxed
   by [p_taken] on every sample. *)
let sample t ~rng ~exec_index ~instr =
  match t with
  | Softening { start; finish; over } when exec_index < over && over > 0 ->
    draw rng (start +. ((finish -. start) *. float_of_int exec_index /. float_of_int over))
  | _ -> draw rng (p_taken t ~exec_index ~instr)

let pp ppf t =
  match t with
  | Stationary p -> Format.fprintf ppf "stationary(p=%.4f)" p
  | Flip_at { threshold; first } ->
    Format.fprintf ppf "flip_at(%d, first=%b)" threshold first
  | Phases phases ->
    Format.fprintf ppf "phases[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf { length; p_taken } -> Format.fprintf ppf "%dx%.3f" length p_taken))
      (Array.to_list phases)
  | Softening { start; finish; over } ->
    Format.fprintf ppf "softening(%.3f->%.3f over %d)" start finish over
  | Periodic { region; p_first; p_second } ->
    Format.fprintf ppf "periodic(region=%d, %.3f/%.3f)" region p_first p_second
  | Global_phases phases ->
    Format.fprintf ppf "global_phases[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf { until_instr; gp_taken } ->
           Format.fprintf ppf "<%d:%.3f" until_instr gp_taken))
      (Array.to_list phases)
