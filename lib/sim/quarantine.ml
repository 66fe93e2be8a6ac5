type t = {
  execs : int array;
  first_misspec_exec : int array;  (* -1 until the first misspeculation *)
  first_misspec_instr : int array;
  quarantine_exec : int array;  (* -1 until speculation stops post-misspec *)
  quarantine_instr : int array;
  misspecs : int array;
}

let create ~n_branches =
  if n_branches <= 0 then invalid_arg "Quarantine.create: n_branches must be positive";
  {
    execs = Array.make n_branches 0;
    first_misspec_exec = Array.make n_branches (-1);
    first_misspec_instr = Array.make n_branches (-1);
    quarantine_exec = Array.make n_branches (-1);
    quarantine_instr = Array.make n_branches (-1);
    misspecs = Array.make n_branches 0;
  }

let observer t ~branch ~taken ~instr ~code =
  let speculating = code land 1 = 1 in
  if speculating then begin
    if taken <> (code land 2 = 2) then begin
      t.misspecs.(branch) <- t.misspecs.(branch) + 1;
      if t.first_misspec_exec.(branch) < 0 then begin
        t.first_misspec_exec.(branch) <- t.execs.(branch);
        t.first_misspec_instr.(branch) <- instr
      end
    end
  end
  else if t.first_misspec_exec.(branch) >= 0 && t.quarantine_exec.(branch) < 0 then begin
    t.quarantine_exec.(branch) <- t.execs.(branch);
    t.quarantine_instr.(branch) <- instr
  end;
  t.execs.(branch) <- t.execs.(branch) + 1

let execs t branch = t.execs.(branch)
let misspecs t branch = t.misspecs.(branch)

let first_misspec t branch =
  if t.first_misspec_exec.(branch) < 0 then None
  else Some (t.first_misspec_exec.(branch), t.first_misspec_instr.(branch))

let quarantined t branch =
  if t.quarantine_exec.(branch) < 0 then None
  else Some (t.quarantine_exec.(branch), t.quarantine_instr.(branch))

let time_to_quarantine t branch =
  match (first_misspec t branch, quarantined t branch) with
  | Some (e0, i0), Some (e1, i1) -> Some (e1 - e0, i1 - i0)
  | _ -> None
