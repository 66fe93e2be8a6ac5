type t =
  | Stationary of float
  | Flip_at of { threshold : int; first : bool }
  | Phases of phase array
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
  | Periodic { region; p_first; p_second } ->
    if region <= 0 then p_first
    else if exec_index / region mod 2 = 0 then p_first
    else p_second
  | Global_phases phases ->
    let n = Array.length phases in
    if n = 0 then 0.5 else global_phase_p phases n instr 0

(* Each end mirrors the lookup above: the phase it ends is the one
   [p_taken] picks, and since the clocks never run backwards that pick
   holds until the end. *)
let rec phase_end phases n exec_index i offset =
  if i >= n - 1 then max_int
  else
    let e = offset + phases.(i).length in
    if exec_index < e then e else phase_end phases n exec_index (i + 1) e

let rec global_phase_end phases n instr i =
  if i >= n - 1 then max_int
  else if instr < phases.(i).until_instr then phases.(i).until_instr
  else global_phase_end phases n instr (i + 1)

let exec_change t ~exec_index =
  match t with
  | Stationary _ | Global_phases _ -> max_int
  | Flip_at { threshold; _ } -> if exec_index < threshold then threshold else max_int
  | Phases phases -> phase_end phases (Array.length phases) exec_index 0 0
  | Periodic { region; _ } -> if region <= 0 then max_int else (exec_index / region + 1) * region

let instr_change t ~instr =
  match t with
  | Global_phases phases -> global_phase_end phases (Array.length phases) instr 0
  | _ -> max_int
