module Func = Rs_ir.Func
module Instr = Rs_ir.Instr
module Interp = Rs_ir.Interp
module A = Rs_distill.Assumptions
module P = Rs_distill.Passes
module D = Rs_distill.Distill
module V = Rs_distill.Check
module Program = Rs_ir.Program

(* --- assumptions -------------------------------------------------------- *)

let test_assumptions_basics () =
  let a = A.branches [ (3, true); (5, false) ] in
  Alcotest.(check (option bool)) "site 3" (Some true) (A.direction a 3);
  Alcotest.(check (option bool)) "site 5" (Some false) (A.direction a 5);
  Alcotest.(check (option bool)) "unknown" None (A.direction a 9);
  Alcotest.(check bool) "empty" true (A.is_empty A.empty);
  Alcotest.(check bool) "nonempty" false (A.is_empty a)

(* --- individual passes --------------------------------------------------- *)

let branchy =
  {
    Func.name = "branchy";
    entry = 0;
    nregs = 8;
    blocks =
      [|
        {
          Func.body = [| Instr.Load (0, 7, 0); Instr.Cmpi (Ne, 1, 0, 0) |];
          term = Func.Branch { cond = 1; site = 0; taken = 1; not_taken = 2 };
        };
        { Func.body = [| Instr.Li (2, 10) |]; term = Func.Jump 3 };
        { Func.body = [| Instr.Li (2, 20) |]; term = Func.Jump 3 };
        {
          Func.body = [| Instr.Addi (3, 2, 5); Instr.Store (7, 3, 1) |];
          term = Func.Ret (Some 3);
        };
      |];
  }

let test_apply_assumptions () =
  let f = P.apply_assumptions (A.branches [ (0, true) ]) branchy in
  (match (Func.block f 0).term with
  | Func.Jump 1 -> ()
  | _ -> Alcotest.fail "branch not replaced by jump to taken side");
  let f = P.apply_assumptions (A.branches [ (0, false) ]) branchy in
  match (Func.block f 0).term with
  | Func.Jump 2 -> ()
  | _ -> Alcotest.fail "branch not replaced by jump to not-taken side"

let test_apply_load_assumption () =
  let f = P.apply_assumptions { A.branches = []; loads = [ (0, 0, 42) ] } branchy in
  match (Func.block f 0).body.(0) with
  | Instr.Li (0, 42) -> ()
  | _ -> Alcotest.fail "load not replaced by immediate"

let test_constant_fold_chain () =
  let f =
    {
      Func.name = "consts";
      entry = 0;
      nregs = 4;
      blocks =
        [|
          {
            Func.body =
              [|
                Instr.Li (0, 6);
                Instr.Addi (1, 0, 4);
                Instr.Binop (Mul, 2, 0, 1);
                Instr.Cmpi (Gt, 3, 2, 50);
              |];
            term = Func.Ret (Some 2);
          };
        |];
    }
  in
  let f' = P.constant_fold f in
  (match (Func.block f' 0).body with
  | [| Instr.Li (0, 6); Instr.Li (1, 10); Instr.Li (2, 60); Instr.Li (3, 1) |] -> ()
  | _ -> Alcotest.failf "chain not folded: %s" (Format.asprintf "%a" Func.pp f'));
  ()

let test_constant_fold_cmp_to_cmpi () =
  let f =
    {
      Func.name = "cmps";
      entry = 0;
      nregs = 4;
      blocks =
        [|
          {
            Func.body =
              [| Instr.Load (0, 3, 0); Instr.Li (1, 32); Instr.Cmp (Lt, 2, 0, 1) |];
            term = Func.Ret (Some 2);
          };
        |];
    }
  in
  let f' = P.constant_fold f in
  (match (Func.block f' 0).body.(2) with
  | Instr.Cmpi (Lt, 2, 0, 32) -> ()
  | _ -> Alcotest.fail "cmp with constant rhs not folded to cmpi");
  (* constant on the left flips the comparison *)
  let f =
    {
      Func.name = "cmps2";
      entry = 0;
      nregs = 4;
      blocks =
        [|
          {
            Func.body =
              [| Instr.Load (0, 3, 0); Instr.Li (1, 32); Instr.Cmp (Lt, 2, 1, 0) |];
            term = Func.Ret (Some 2);
          };
        |];
    }
  in
  match (Func.block (P.constant_fold f) 0).body.(2) with
  | Instr.Cmpi (Gt, 2, 0, 32) -> ()
  | _ -> Alcotest.fail "cmp with constant lhs not flipped"

let test_constant_fold_branch () =
  let f =
    {
      Func.name = "cbranch";
      entry = 0;
      nregs = 2;
      blocks =
        [|
          {
            Func.body = [| Instr.Li (0, 1) |];
            term = Func.Branch { cond = 0; site = 0; taken = 1; not_taken = 2 };
          };
          { Func.body = [||]; term = Func.Ret (Some 0) };
          { Func.body = [||]; term = Func.Ret None };
        |];
    }
  in
  match (Func.block (P.constant_fold f) 0).term with
  | Func.Jump 1 -> ()
  | _ -> Alcotest.fail "constant branch not folded to jump"

let test_dce_removes_dead_load () =
  let f =
    {
      Func.name = "deadload";
      entry = 0;
      nregs = 4;
      blocks =
        [|
          {
            Func.body =
              [| Instr.Load (0, 3, 0) (* dead *); Instr.Li (1, 5); Instr.Store (3, 1, 1) |];
            term = Func.Ret (Some 1);
          };
        |];
    }
  in
  let f' = P.dead_code_elimination f in
  Alcotest.(check int) "dead load removed" 2 (Array.length (Func.block f' 0).body);
  match (Func.block f' 0).body.(0) with
  | Instr.Li (1, 5) -> ()
  | _ -> Alcotest.fail "wrong instruction removed"

let test_dce_keeps_stores_and_transitive_uses () =
  let f =
    {
      Func.name = "chain";
      entry = 0;
      nregs = 4;
      blocks =
        [|
          {
            Func.body =
              [| Instr.Li (0, 5); Instr.Addi (1, 0, 1); Instr.Store (3, 1, 0) |];
            term = Func.Ret None;
          };
        |];
    }
  in
  let f' = P.dead_code_elimination f in
  Alcotest.(check int) "nothing removed" 3 (Array.length (Func.block f' 0).body)

let test_dce_path_sensitivity_after_approx () =
  (* the figure-1 pattern: r1's first definition is dead only once the
     branch forcing the redefinition is assumed *)
  let f = Program.entry_func (fst (Rs_ir.Synth.figure1 ())) in
  let before = P.dead_code_elimination f in
  Alcotest.(check int) "x.b load live in original" (Func.static_size f)
    (Func.static_size before);
  let approx = P.apply_assumptions (A.branches [ (0, true) ]) f in
  let after = P.dead_code_elimination approx in
  Alcotest.(check bool) "x.b load dead after approximation" true
    (Func.static_size after < Func.static_size approx)

let test_simplify_cfg () =
  let f =
    {
      Func.name = "threads";
      entry = 0;
      nregs = 2;
      blocks =
        [|
          { Func.body = [| Instr.Li (0, 1) |]; term = Func.Jump 1 };
          { Func.body = [||]; term = Func.Jump 2 } (* empty hop *);
          { Func.body = [||]; term = Func.Ret (Some 0) };
          { Func.body = [| Instr.Li (1, 9) |]; term = Func.Ret None } (* unreachable *);
        |];
    }
  in
  let f' = P.simplify_cfg f in
  Alcotest.(check bool) "unreachable and hop removed" true (Array.length f'.blocks = 2);
  match (Func.block f' f'.entry).term with
  | Func.Jump l ->
    (match (Func.block f' l).term with
    | Func.Ret (Some 0) -> ()
    | _ -> Alcotest.fail "jump no longer reaches ret")
  | _ -> Alcotest.fail "entry shape changed"

let test_local_cse () =
  let f =
    {
      Func.name = "cse";
      entry = 0;
      nregs = 8;
      blocks =
        [|
          {
            Func.body =
              [|
                Instr.Load (0, 7, 0);
                Instr.Binop (Add, 1, 0, 0);
                Instr.Load (2, 7, 0) (* same load, no store between *);
                Instr.Binop (Add, 3, 2, 2) (* same expression via the copy *);
                Instr.Store (7, 3, 1);
                Instr.Load (4, 7, 0) (* the store kills load availability *);
                Instr.Store (7, 4, 2);
                Instr.Store (7, 1, 3);
              |];
            term = Func.Ret None;
          };
        |];
    }
  in
  let f' = P.local_cse f in
  (match (Func.block f' 0).body.(2) with
  | Instr.Mov (2, 0) -> ()
  | i -> Alcotest.failf "redundant load not CSEd: %s" (Format.asprintf "%a" Instr.pp i));
  (match (Func.block f' 0).body.(3) with
  | Instr.Mov (3, 1) -> ()
  | i -> Alcotest.failf "redundant add not CSEd: %s" (Format.asprintf "%a" Instr.pp i));
  (match (Func.block f' 0).body.(5) with
  | Instr.Load (4, 7, 0) -> ()
  | i -> Alcotest.failf "load across store wrongly CSEd: %s" (Format.asprintf "%a" Instr.pp i));
  (* the full pipeline then removes the Movs *)
  let opt = P.pipeline A.empty f in
  Alcotest.(check bool) "pipeline shrinks the block" true
    (Func.static_size opt < Func.static_size f)

let test_cse_respects_redefinition () =
  let f =
    {
      Func.name = "redef";
      entry = 0;
      nregs = 4;
      blocks =
        [|
          {
            Func.body =
              [|
                Instr.Binop (Add, 1, 0, 0);
                Instr.Addi (0, 0, 1) (* source redefined *);
                Instr.Binop (Add, 2, 0, 0) (* NOT the same expression *);
                Instr.Store (3, 1, 0);
                Instr.Store (3, 2, 1);
              |];
            term = Func.Ret None;
          };
        |];
    }
  in
  match (Func.block (P.local_cse f) 0).body.(2) with
  | Instr.Binop (Add, 2, 0, 0) -> ()
  | i -> Alcotest.failf "stale expression reused: %s" (Format.asprintf "%a" Instr.pp i)

let test_block_merging_via_pipeline () =
  (* after assuming every branch, the region collapses into a single
     straight-line block *)
  let region =
    Rs_ir.Synth.generate ~rng:(Rs_util.Prng.create 4) ~n_sites:3 ~first_site:0 ()
  in
  let a = A.branches [ (0, true); (1, false); (2, true) ] in
  let d = D.distill region.prog a in
  Alcotest.(check int) "single block remains" 1
    (Array.length (Program.entry_func d.distilled).Func.blocks)

(* --- the full pipeline --------------------------------------------------- *)

let test_figure1_distillation () =
  let p, branch_assumes = Rs_ir.Synth.figure1 () in
  let a = { A.branches = branch_assumes; loads = [ (2, 0, 32) ] } in
  let r = D.distill p a in
  Alcotest.(check bool) "meaningfully smaller" true
    (r.distilled_size <= r.original_size - 4);
  (* the only remaining branch is site 1, and the compare is against an
     immediate 32 (the paper's cmplt r1, 32) *)
  Alcotest.(check (list int)) "site 0 removed" [ 1 ] (Program.sites r.distilled);
  let found_cmpi32 = ref false in
  Array.iter
    (fun (b : Func.block) ->
      Array.iter
        (function Instr.Cmpi (Lt, _, _, 32) -> found_cmpi32 := true | _ -> ())
        b.body)
    (Program.entry_func r.distilled).Func.blocks;
  Alcotest.(check bool) "cmplt r1, 32 present" true !found_cmpi32

let test_verify_catches_wrong_code () =
  let p, _ = Rs_ir.Synth.figure1 () in
  (* distill under a WRONG direction, then verify against inputs that
     satisfy the right direction: must diverge *)
  let wrong = D.distill p (A.branches [ (0, false) ]) in
  let prepare i =
    let mem = Array.make 8 0 in
    mem.(0) <- 1;
    mem.(2) <- 100 + i;
    mem.(3) <- 32;
    mem
  in
  match
    V.check ~orig:p ~distilled:wrong.distilled
      ~assumptions:(A.branches [ (0, true) ])
      ~prepare ~trials:20
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "verification failed to detect wrong distillation"

let test_verify_skips_inconsistent_trials () =
  let p, _ = Rs_ir.Synth.figure1 () in
  let d = D.distill p (A.branches [ (0, true) ]) in
  (* half the trials violate the assumption; they must not be counted *)
  let prepare i =
    let mem = Array.make 8 0 in
    mem.(0) <- i mod 2;
    mem.(3) <- 32;
    mem
  in
  match
    V.check ~orig:p ~distilled:d.distilled
      ~assumptions:(A.branches [ (0, true) ])
      ~prepare ~trials:40
  with
  | Ok rep ->
    Alcotest.(check int) "all trials ran" 40 rep.trials;
    Alcotest.(check int) "half consistent" 20 rep.consistent;
    Alcotest.(check int) "half violated" 20 rep.violated
  | Error e -> Alcotest.fail e

(* Differential property: on synthetic regions, distilled == original for
   every outcome vector consistent with random assumption sets. *)
let qcheck_distill_equivalence =
  QCheck.Test.make ~name:"distilled region == original under assumptions" ~count:60
    QCheck.(triple small_int (int_bound 15) (int_bound 15))
    (fun (seed, assume_mask, dir_mask) ->
      let region =
        Rs_ir.Synth.generate ~rng:(Rs_util.Prng.create seed) ~n_sites:4 ~first_site:0 ()
      in
      let branches =
        List.concat_map
          (fun j ->
            if assume_mask land (1 lsl j) <> 0 then [ (j, dir_mask land (1 lsl j) <> 0) ]
            else [])
          [ 0; 1; 2; 3 ]
      in
      let a = A.branches branches in
      let d = D.distill region.prog a in
      (* check all 16 outcome vectors consistent with the assumptions *)
      let ok = ref true in
      for v = 0 to 15 do
        let consistent =
          List.for_all (fun (j, dir) -> v land (1 lsl j) <> 0 = dir) branches
        in
        if consistent then begin
          let outcomes = Array.init 4 (fun j -> v land (1 lsl j) <> 0) in
          let mem_o = Array.make region.mem_size 0 in
          Rs_ir.Synth.set_inputs region ~mem:mem_o outcomes;
          (* randomize the globals so the work is data dependent *)
          let rng = Rs_util.Prng.create (seed + v) in
          for g = 4 to region.mem_size - 3 do
            mem_o.(g) <- Rs_util.Prng.int rng 1000
          done;
          let mem_d = Array.copy mem_o in
          let ro = Interp.run region.prog ~mem:mem_o in
          let rd = Interp.run d.distilled ~mem:mem_d in
          if ro.return_value <> rd.return_value || mem_o <> mem_d then ok := false
        end
      done;
      !ok)

(* Without assumptions the pipeline is a plain optimizer: it must
   preserve semantics exactly on every input. *)
let qcheck_pipeline_preserves_semantics =
  QCheck.Test.make ~name:"optimization passes preserve semantics (no assumptions)" ~count:60
    QCheck.(pair small_int (int_bound 15))
    (fun (seed, v) ->
      let region =
        Rs_ir.Synth.generate ~rng:(Rs_util.Prng.create seed) ~n_sites:4 ~first_site:0 ()
      in
      let opt = P.pipeline A.empty (Program.entry_func region.prog) in
      let outcomes = Array.init 4 (fun j -> v land (1 lsl j) <> 0) in
      let mem_o = Array.make region.mem_size 0 in
      Rs_ir.Synth.set_inputs region ~mem:mem_o outcomes;
      let rng = Rs_util.Prng.create (seed * 3 + v) in
      for g = 4 to region.mem_size - 3 do
        mem_o.(g) <- Rs_util.Prng.int rng 1000
      done;
      let mem_d = Array.copy mem_o in
      let ro = Interp.run region.prog ~mem:mem_o in
      let rd = Interp.run_func opt ~mem:mem_d in
      ro.return_value = rd.return_value && mem_o = mem_d)

let qcheck_pipeline_idempotent =
  QCheck.Test.make ~name:"distillation is idempotent" ~count:40
    QCheck.(pair small_int (int_bound 15))
    (fun (seed, assume_mask) ->
      let region =
        Rs_ir.Synth.generate ~rng:(Rs_util.Prng.create seed) ~n_sites:4 ~first_site:0 ()
      in
      let branches =
        List.concat_map
          (fun j -> if assume_mask land (1 lsl j) <> 0 then [ (j, true) ] else [])
          [ 0; 1; 2; 3 ]
      in
      let a = A.branches branches in
      let once = (D.distill region.prog a).distilled in
      let twice = (D.distill once A.empty).distilled in
      Program.static_size twice = Program.static_size once)

let qcheck_distill_never_grows =
  QCheck.Test.make ~name:"distillation never grows the code" ~count:60
    QCheck.(pair small_int (int_bound 15))
    (fun (seed, assume_mask) ->
      let region =
        Rs_ir.Synth.generate ~rng:(Rs_util.Prng.create seed) ~n_sites:4 ~first_site:0 ()
      in
      let branches =
        List.concat_map
          (fun j -> if assume_mask land (1 lsl j) <> 0 then [ (j, true) ] else [])
          [ 0; 1; 2; 3 ]
      in
      let d = D.distill region.prog (A.branches branches) in
      d.distilled_size <= d.original_size)


(* --- interprocedural: inlining, splitting, pruning ------------------------ *)

let multi_region seed =
  Rs_ir.Synth.program ~rng:(Rs_util.Prng.create seed) ~helper_sites:2 ~loop_trips:2
    ~first_site:0 ()

let assume_of a site = A.direction a site

let test_inline_calls () =
  let region = multi_region 5 in
  let a = A.branches [ (0, true); (1, true); (4, true) ] in
  let inlined, count = P.inline_calls ~assume:(assume_of a) region.prog in
  Alcotest.(check bool) "inlined at least one call" true (count >= 1);
  Alcotest.(check bool) "still valid" true (Result.is_ok (Program.validate inlined));
  (* inlining is exact: equivalence must hold on EVERY input, assumptions
     satisfied or not *)
  for v = 0 to 31 do
    let outcomes = Array.init 5 (fun j -> v land (1 lsl j) <> 0) in
    let mem_o = Array.make region.mem_size 0 in
    Rs_ir.Synth.set_inputs region ~mem:mem_o outcomes;
    for g = 5 to region.mem_size - 3 do
      mem_o.(g) <- (v * 37) + g
    done;
    let mem_i = Array.copy mem_o in
    let ro = Interp.run region.prog ~mem:mem_o in
    let ri = Interp.run inlined ~mem:mem_i in
    Alcotest.(check (option int))
      (Printf.sprintf "return equal on vector %d" v)
      ro.Interp.return_value ri.Interp.return_value;
    Alcotest.(check bool) (Printf.sprintf "memory equal on vector %d" v) true (mem_o = mem_i)
  done

let test_hot_cold_split () =
  let f', split = P.hot_cold_split ~assume:(fun _ -> Some true) branchy in
  Alcotest.(check int) "hot blocks" 3 split.P.hot_blocks;
  Alcotest.(check int) "cold blocks" 1 split.P.cold_blocks;
  Alcotest.(check int) "cold entries" 1 split.P.cold_entries;
  Alcotest.(check int) "pure reorder keeps size" (Func.static_size branchy)
    (Func.static_size f');
  (* layout must not change behaviour in either branch direction *)
  List.iter
    (fun x ->
      let mem_o = Array.make 4 x in
      let mem_s = Array.copy mem_o in
      let ro = Interp.run_func branchy ~mem:mem_o in
      let rs = Interp.run_func f' ~mem:mem_s in
      Alcotest.(check (option int)) "return equal" ro.Interp.return_value
        rs.Interp.return_value;
      Alcotest.(check bool) "memory equal" true (mem_o = mem_s))
    [ 0; 1 ];
  (* a fully hot function splits to the identity *)
  let g, split0 = P.hot_cold_split ~assume:(fun _ -> None) branchy in
  Alcotest.(check int) "static prediction leaves one cold block" 1 split0.P.cold_blocks;
  ignore g

let test_prune_dead_funcs () =
  let region = multi_region 9 in
  let a = A.branches [ (0, true); (1, true); (4, true) ] in
  (* inline everything reachable: helpers become dead once no call
     remains, and pruning must compact them away *)
  let inlined, count = P.inline_calls ~assume:(assume_of a) region.prog in
  Alcotest.(check bool) "all call sites inlined" true (count >= 4);
  let pruned = P.prune_dead_funcs inlined in
  Alcotest.(check int) "only the entry survives" 1 (Program.n_funcs pruned);
  Alcotest.(check bool) "still valid" true (Result.is_ok (Program.validate pruned));
  let mem_o = Array.make region.mem_size 0 in
  Rs_ir.Synth.set_inputs region ~mem:mem_o (Array.make 5 true);
  let mem_p = Array.copy mem_o in
  let ro = Interp.run region.prog ~mem:mem_o in
  let rp = Interp.run pruned ~mem:mem_p in
  Alcotest.(check (option int)) "semantics survive pruning" ro.Interp.return_value
    rp.Interp.return_value;
  (* a program with every function reachable is returned physically intact *)
  Alcotest.(check bool) "identity when nothing is dead" true
    (P.prune_dead_funcs region.prog == region.prog)

let test_distill_program_stats () =
  let region = multi_region 11 in
  let a = A.branches [ (0, true); (1, true); (4, true) ] in
  let r = D.distill region.prog a in
  Alcotest.(check bool) "valid distilled program" true
    (Result.is_ok (Program.validate r.distilled));
  Alcotest.(check bool) "inlined calls counted" true (r.stats.D.inlined_calls >= 1);
  Alcotest.(check bool) "hot blocks counted" true (r.stats.D.hot_blocks >= 1);
  Alcotest.(check bool) "split covers the entry function" true
    (r.stats.D.hot_blocks + r.stats.D.cold_blocks
    = Array.length (Program.entry_func r.distilled).Func.blocks);
  Alcotest.(check bool) "never grows" true (r.distilled_size <= r.original_size)

(* The headline acceptance property: over many random multi-function
   programs and inputs (25 programs x 48 memories = 1200 pairs), the
   distilled code agrees with the original whenever the assumptions
   hold, and every single-site violation is observably detected. *)
let qcheck_program_differential =
  QCheck.Test.make ~name:"interprocedural distillation: agree when consistent, detect violations"
    ~count:25 QCheck.small_int
    (fun seed ->
      let region = multi_region (seed + 1) in
      let a = A.branches [ (0, true); (1, true); (4, true) ] in
      let d = D.distill region.prog a in
      let prepare i =
        let mem = Array.make region.mem_size 0 in
        Array.iteri
          (fun j site ->
            mem.(j) <-
              (match A.direction a site with
              | Some dir -> if dir then 1 else 0
              | None -> (i lsr j) land 1))
          region.site_ids;
        (* every 8th memory flips exactly one assumed site's input *)
        (if i mod 8 = 7 then
           let cell = [| 0; 1; 4 |].((i / 8) mod 3) in
           mem.(cell) <- 1 - mem.(cell));
        for g = 0 to 15 do
          mem.(5 + g) <- (seed * 17) + (i * 31) + g
        done;
        mem
      in
      match
        V.check ~orig:region.prog ~distilled:d.distilled ~assumptions:a ~prepare
          ~trials:48
      with
      | Ok rep ->
        rep.V.trials = 48
        && rep.V.consistent + rep.V.violated = 48
        && rep.V.violated > 0
        && rep.V.detected = rep.V.violated
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "assumptions basics" `Quick test_assumptions_basics;
    Alcotest.test_case "apply branch assumptions" `Quick test_apply_assumptions;
    Alcotest.test_case "apply load assumption" `Quick test_apply_load_assumption;
    Alcotest.test_case "constant fold chain" `Quick test_constant_fold_chain;
    Alcotest.test_case "cmp folds to cmpi" `Quick test_constant_fold_cmp_to_cmpi;
    Alcotest.test_case "constant branch folds" `Quick test_constant_fold_branch;
    Alcotest.test_case "dce removes dead load" `Quick test_dce_removes_dead_load;
    Alcotest.test_case "dce keeps stores" `Quick test_dce_keeps_stores_and_transitive_uses;
    Alcotest.test_case "dce after approximation (figure 1)" `Quick
      test_dce_path_sensitivity_after_approx;
    Alcotest.test_case "simplify cfg" `Quick test_simplify_cfg;
    Alcotest.test_case "local cse" `Quick test_local_cse;
    Alcotest.test_case "cse respects redefinition" `Quick test_cse_respects_redefinition;
    Alcotest.test_case "block merging via pipeline" `Quick test_block_merging_via_pipeline;
    Alcotest.test_case "verify catches wrong code" `Quick test_verify_catches_wrong_code;
    Alcotest.test_case "figure 1 distillation" `Quick test_figure1_distillation;
    Alcotest.test_case "verify skips inconsistent trials" `Quick
      test_verify_skips_inconsistent_trials;
    Alcotest.test_case "inline calls (exact)" `Quick test_inline_calls;
    Alcotest.test_case "hot/cold split" `Quick test_hot_cold_split;
    Alcotest.test_case "prune dead funcs" `Quick test_prune_dead_funcs;
    Alcotest.test_case "distill program stats" `Quick test_distill_program_stats;
    QCheck_alcotest.to_alcotest qcheck_program_differential;
    QCheck_alcotest.to_alcotest qcheck_distill_equivalence;
    QCheck_alcotest.to_alcotest qcheck_distill_never_grows;
    QCheck_alcotest.to_alcotest qcheck_pipeline_preserves_semantics;
    QCheck_alcotest.to_alcotest qcheck_pipeline_idempotent;
  ]
