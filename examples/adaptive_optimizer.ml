(* An adaptive dynamic optimizer on real code.

   This example wires all the layers together the way a deployment would:

   - a hot region of IR code with four branch sites (Rs_ir.Synth);
   - branch behaviours driving the region's inputs (one site reverses
     mid-run);
   - the reactive controller deciding which sites to assume
     (Rs_core.Reactive);
   - the distiller producing unchecked speculative code for the current
     assumption set (Rs_distill), re-optimizing whenever the deployed
     assumptions change;
   - differential verification that every deployed version is equivalent
     to the original whenever its assumptions hold.

   Run with: dune exec examples/adaptive_optimizer.exe *)

module B = Rs_behavior.Behavior
module Sampler = Rs_behavior.Stream.Sampler
module Prng = Rs_util.Prng
module Reactive = Rs_core.Reactive
module Types = Rs_core.Types
module A = Rs_distill.Assumptions

let () =
  let rng = Prng.create 2024 in
  let region = Rs_ir.Synth.generate ~rng ~n_sites:4 ~first_site:0 () in
  Format.printf "The hot region (%d static instructions):@.%a@."
    (Rs_ir.Program.static_size region.prog)
    Rs_ir.Func.pp
    (Rs_ir.Program.entry_func region.prog);

  (* site behaviours: 0 and 1 strongly biased, 2 reverses at 20k, 3 unbiased *)
  let behaviors =
    [|
      B.Stationary 0.999;
      B.Stationary 0.0005;
      B.Phases [| { length = 20_000; p_taken = 0.999 }; { length = 1; p_taken = 0.01 } |];
      B.Stationary 0.55;
    |]
  in
  let sites = Sampler.create behaviors rng in
  let params =
    { (Rs_core.Params.compress ~factor:10 Rs_core.Params.default) with
      monitor_period = 1_000; optimization_latency = 0 }
  in
  let controller = Reactive.create ~n_branches:4 params in
  let deployed_assumptions = ref A.empty in
  let deployed = ref (Rs_distill.Distill.distill region.prog A.empty) in
  let deployments = ref 0 in

  let current_assumptions () =
    A.branches
      (List.filter_map
         (fun s ->
           let d = Reactive.deployed controller s in
           if d.Types.speculate then Some (s, d.direction) else None)
         [ 0; 1; 2; 3 ])
  in
  let verify_deployed assumptions =
    (* check the new code against the original on inputs consistent with
       the assumptions before shipping it *)
    let prepare i =
      let mem = Array.make region.mem_size 0 in
      Array.iteri
        (fun j _ ->
          let taken =
            match A.direction assumptions j with
            | Some d -> d
            | None -> (i + j) mod 2 = 0
          in
          mem.(j) <- (if taken then 1 else 0))
        region.site_ids;
      for g = 4 to region.mem_size - 3 do
        mem.(g) <- (i * 31) + g
      done;
      mem
    in
    match
      Rs_distill.Check.check ~orig:region.prog ~distilled:!deployed.distilled ~assumptions
        ~prepare ~trials:32
    with
    | Ok _ -> "verified"
    | Error e -> "BROKEN: " ^ e
  in

  let instr = ref 0 in
  let redeploy () =
    let a = current_assumptions () in
    if a <> !deployed_assumptions then begin
      let r = Rs_distill.Distill.distill region.prog a in
      deployed_assumptions := a;
      deployed := r;
      incr deployments;
      Format.printf
        "  [instr %8d] re-optimized: %a@.                   %d -> %d static instrs, %s@."
        !instr A.pp a r.original_size r.distilled_size (verify_deployed a)
    end
  in

  print_endline "Running 60,000 region instances through the adaptive loop:\n";
  let total_dyn_orig = ref 0 in
  let total_dyn_master = ref 0 in
  let violations = ref 0 in
  for _it = 1 to 60_000 do
    let outcomes = Array.init 4 (fun j -> Sampler.next sites j ~instr:!instr) in
    (* execute the deployed speculative version *)
    let mem = Array.make region.mem_size 0 in
    Rs_ir.Synth.set_inputs region ~mem outcomes;
    let speculative = Rs_ir.Interp.run !deployed.distilled ~mem in
    let original = Rs_ir.Synth.run region ~outcomes in
    total_dyn_master := !total_dyn_master + speculative.dyn_instrs;
    total_dyn_orig := !total_dyn_orig + original.dyn_instrs;
    (* a violated assumption shows up as diverging observable state *)
    if speculative.return_value <> original.return_value then incr violations;
    instr := !instr + original.dyn_instrs;
    Array.iteri
      (fun j taken -> Reactive.observe controller ~branch:j ~taken ~instr:!instr)
      outcomes;
    redeploy ()
  done;

  Printf.printf "\n  region instances:        60,000\n";
  Printf.printf "  re-optimizations:        %d\n" !deployments;
  Printf.printf "  dynamic instructions:    %d original, %d speculative (%.0f%% saved)\n"
    !total_dyn_orig !total_dyn_master
    (100.0
    *. (1.0 -. (float_of_int !total_dyn_master /. float_of_int !total_dyn_orig)));
  Printf.printf "  instances with violated assumptions: %d (%.2f%%)\n" !violations
    (float_of_int !violations /. 600.0);
  print_endline
    "\nThe reversal at execution 20,000 triggered an eviction and a re-optimization;\n\
     afterwards the distilled code assumes the opposite direction and violations stop."
