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
