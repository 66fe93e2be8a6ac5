type counts = { execs : int; taken : int }

let bias c =
  if c.execs = 0 then 0.5
  else float_of_int (max c.taken (c.execs - c.taken)) /. float_of_int c.execs

let select ~threshold c =
  if c.execs > 0 && bias c >= threshold then
    { Types.speculate = true; direction = 2 * c.taken >= c.execs }
  else Types.no_speculation

let score (d : Types.decision) c =
  if not d.speculate then (0, 0)
  else begin
    let taken_matches = if d.direction then c.taken else c.execs - c.taken in
    (taken_matches, c.execs - taken_matches)
  end

let windows = [| 1_000; 10_000; 100_000; 300_000; 1_000_000 |]

let windows_for ~tau =
  if tau <= 0 then invalid_arg "Static.windows_for: tau must be positive";
  Array.map (fun w -> max 100 (w / tau)) windows
