module Instr = Rs_ir.Instr
module Func = Rs_ir.Func
module Program = Rs_ir.Program
module P = Rs_distill.Passes
module Interp = Rs_ir.Interp
module Synth = Rs_ir.Synth

(* Branch-site ids of every function, in function then block order. *)
let func_sites (f : Func.t) =
  Array.fold_right
    (fun (b : Func.block) acc ->
      match b.term with Func.Branch { site; _ } -> site :: acc | _ -> acc)
    f.blocks []

let program_sites (p : Program.t) = List.concat_map func_sites (Array.to_list p.funcs)

(* [(site, taken)] in execution order, through the interpreter's branch
   hook (what Region_model's path tables are built from). *)
let branch_outcomes p ~mem =
  let out = ref [] in
  ignore (Interp.run ~hook:(fun ~site ~taken -> out := (site, taken) :: !out) p ~mem);
  List.rev !out

(* --- instruction helpers ------------------------------------------------ *)

let test_def_uses () =
  Alcotest.(check (option int)) "li def" (Some 3) (Instr.def (Li (3, 7)));
  Alcotest.(check (option int)) "store no def" None (Instr.def (Store (1, 2, 0)));
  Alcotest.(check (list int)) "store uses both" [ 1; 2 ] (Instr.uses (Store (1, 2, 0)));
  Alcotest.(check (list int)) "li uses none" [] (Instr.uses (Li (3, 7)));
  Alcotest.(check (list int)) "binop uses" [ 4; 5 ] (Instr.uses (Binop (Add, 3, 4, 5)))

let test_eval () =
  Alcotest.(check int) "add" 7 (Instr.eval_binop Add 3 4);
  Alcotest.(check int) "sub" (-1) (Instr.eval_binop Sub 3 4);
  Alcotest.(check int) "mul" 12 (Instr.eval_binop Mul 3 4);
  Alcotest.(check int) "xor" 7 (Instr.eval_binop Xor 3 4);
  Alcotest.(check int) "shl" 12 (Instr.eval_binop Shl 3 2);
  Alcotest.(check int) "shr" (-2) (Instr.eval_binop Shr (-8) 2);
  Alcotest.(check bool) "lt" true (Instr.eval_cmp Lt 3 4);
  Alcotest.(check bool) "ge" false (Instr.eval_cmp Ge 3 4);
  Alcotest.(check bool) "eq" true (Instr.eval_cmp Eq 4 4)

let test_map_regs () =
  let i = Instr.Binop (Add, 1, 2, 3) in
  Alcotest.(check bool) "renamed" true
    (Instr.map_regs (fun r -> r + 10) i = Instr.Binop (Add, 11, 12, 13))

(* --- function validation ------------------------------------------------ *)

let valid_func =
  {
    Func.name = "f";
    entry = 0;
    nregs = 4;
    blocks =
      [|
        {
          Func.body = [| Instr.Li (0, 5); Instr.Cmpi (Gt, 1, 0, 3) |];
          term = Func.Branch { cond = 1; site = 0; taken = 1; not_taken = 2 };
        };
        { Func.body = [| Instr.Li (2, 1) |]; term = Func.Jump 2 };
        { Func.body = [||]; term = Func.Ret (Some 0) };
      |];
  }

let test_validate () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Func.validate valid_func));
  let bad_label = { valid_func with entry = 9 } in
  Alcotest.(check bool) "bad entry" true (Result.is_error (Func.validate bad_label));
  let bad_reg = { valid_func with nregs = 1 } in
  Alcotest.(check bool) "bad reg" true (Result.is_error (Func.validate bad_reg));
  let empty = { valid_func with blocks = [||] } in
  Alcotest.(check bool) "no blocks" true (Result.is_error (Func.validate empty))

let test_static_size_and_sites () =
  Alcotest.(check int) "size counts terminators" 6 (Func.static_size valid_func);
  Alcotest.(check (list int)) "sites" [ 0 ] (func_sites valid_func)

let test_reachable () =
  let f =
    {
      valid_func with
      blocks =
        Array.append valid_func.blocks
          [| { Func.body = [||]; term = Func.Ret None } |];
    }
  in
  let r = Func.reachable f in
  Alcotest.(check (array bool)) "last block unreachable" [| true; true; true; false |] r

(* --- interpreter -------------------------------------------------------- *)

let test_interp_arith () =
  let f =
    {
      Func.name = "arith";
      entry = 0;
      nregs = 4;
      blocks =
        [|
          {
            Func.body =
              [|
                Instr.Li (0, 6);
                Instr.Li (1, 7);
                Instr.Binop (Mul, 2, 0, 1);
                Instr.Addi (2, 2, 100);
              |];
            term = Func.Ret (Some 2);
          };
        |];
    }
  in
  let r = Interp.run (Program.of_func f) ~mem:(Array.make 4 0) in
  Alcotest.(check (option int)) "6*7+100" (Some 142) r.return_value;
  Alcotest.(check int) "dyn instrs" 5 r.dyn_instrs

let test_interp_memory_and_branch () =
  let f =
    {
      Func.name = "memo";
      entry = 0;
      nregs = 4;
      blocks =
        [|
          {
            Func.body = [| Instr.Load (0, 1, 0); Instr.Cmpi (Gt, 2, 0, 10) |];
            term = Func.Branch { cond = 2; site = 7; taken = 1; not_taken = 2 };
          };
          { Func.body = [| Instr.Li (3, 111); Instr.Store (1, 3, 1) |]; term = Func.Ret (Some 3) };
          { Func.body = [| Instr.Li (3, 222); Instr.Store (1, 3, 1) |]; term = Func.Ret (Some 3) };
        |];
    }
  in
  let mem = [| 50; 0 |] in
  let outcomes = branch_outcomes (Program.of_func f) ~mem in
  Alcotest.(check bool) "taken when >10" true (outcomes = [ (7, true) ]);
  Alcotest.(check int) "taken side stored" 111 mem.(1);
  let mem = [| 5; 0 |] in
  let r = Interp.run (Program.of_func f) ~mem in
  Alcotest.(check (option int)) "not-taken value" (Some 222) r.return_value;
  Alcotest.(check int) "not-taken side stored" 222 mem.(1)

let test_interp_oob () =
  let f =
    {
      Func.name = "oob";
      entry = 0;
      nregs = 2;
      blocks = [| { Func.body = [| Instr.Load (0, 1, 99) |]; term = Func.Ret None } |];
    }
  in
  Alcotest.check_raises "out of bounds" (Interp.Stuck "address 99 out of bounds") (fun () ->
      ignore (Interp.run (Program.of_func f) ~mem:(Array.make 4 0)))

let test_interp_step_budget () =
  let f =
    {
      Func.name = "loop";
      entry = 0;
      nregs = 1;
      blocks = [| { Func.body = [||]; term = Func.Jump 0 } |];
    }
  in
  Alcotest.check_raises "budget" (Interp.Stuck "step budget exceeded") (fun () ->
      ignore (Interp.run (Program.of_func f) ~mem:(Array.make 1 0)))

let test_interp_initial_regs () =
  let f =
    {
      Func.name = "seeded";
      entry = 0;
      nregs = 2;
      blocks = [| { Func.body = [| Instr.Addi (1, 0, 1) |]; term = Func.Ret (Some 1) } |];
    }
  in
  (* A frame's initial registers are its arguments: main calls f with 41. *)
  let main =
    {
      Func.name = "main";
      entry = 0;
      nregs = 2;
      blocks =
        [|
          {
            Func.body = [| Instr.Li (0, 41) |];
            term = Func.Call { callee = 1; args = [ 0 ]; ret = Some 1; next = 1 };
          };
          { Func.body = [||]; term = Func.Ret (Some 1) };
        |];
    }
  in
  let p = { Program.name = "seeded"; funcs = [| main; f |]; entry = 0 } in
  let r = Interp.run p ~mem:(Array.make 1 0) in
  Alcotest.(check (option int)) "seeded register" (Some 42) r.return_value

(* --- synthetic regions --------------------------------------------------- *)

let test_synth_valid_and_deterministic () =
  let make () = Synth.generate ~rng:(Rs_util.Prng.create 5) ~n_sites:4 ~first_site:12 () in
  let a = make () and b = make () in
  Alcotest.(check bool) "valid" true (Result.is_ok (Program.validate a.prog));
  Alcotest.(check int) "same size" (Program.static_size a.prog) (Program.static_size b.prog);
  Alcotest.(check (array int)) "site ids" [| 12; 13; 14; 15 |] a.site_ids

let test_synth_outcomes_respected () =
  let region = Synth.generate ~rng:(Rs_util.Prng.create 9) ~n_sites:4 ~first_site:0 () in
  let cases = [ [| true; true; true; true |]; [| false; true; false; true |] ] in
  List.iter
    (fun outcomes ->
      let mem = Array.make region.mem_size 0 in
      Synth.set_inputs region ~mem outcomes;
      let seen = branch_outcomes region.prog ~mem in
      Alcotest.(check int) "all sites executed" 4 (List.length seen);
      List.iteri
        (fun j (site, taken) ->
          Alcotest.(check int) "site order" j site;
          Alcotest.(check bool) "outcome as set" outcomes.(j) taken)
        seen)
    cases

let test_synth_paths_differ () =
  let region = Synth.generate ~rng:(Rs_util.Prng.create 1) ~n_sites:3 ~first_site:0 () in
  let r_tt = Synth.run region ~outcomes:[| true; true; true |] in
  let r_ff = Synth.run region ~outcomes:[| false; false; false |] in
  (* both directions execute work; results generally differ *)
  Alcotest.(check bool) "lengths positive" true (r_tt.dyn_instrs > 20 && r_ff.dyn_instrs > 20)

let test_figure1_shape () =
  let p, assumes = Synth.figure1 () in
  Alcotest.(check bool) "valid" true (Result.is_ok (Program.validate p));
  Alcotest.(check (list int)) "two sites" [ 0; 1 ] (program_sites p);
  Alcotest.(check bool) "x.a assumed taken" true (assumes = [ (0, true) ])


(* --- programs, calls, CFG, paths ----------------------------------------- *)

(* main calls add(a, b) twice; add returns a+b+1 via a tail call to inc *)
let call_prog =
  let main =
    {
      Func.name = "main";
      entry = 0;
      nregs = 4;
      blocks =
        [|
          {
            Func.body = [| Instr.Li (0, 10); Instr.Li (1, 4) |];
            term = Func.Call { callee = 1; args = [ 0; 1 ]; ret = Some 2; next = 1 };
          };
          {
            Func.body = [||];
            term = Func.Call { callee = 1; args = [ 2; 1 ]; ret = Some 3; next = 2 };
          };
          {
            Func.body = [| Instr.Li (1, 0); Instr.Store (1, 3, 0) |];
            term = Func.Ret (Some 3);
          };
        |];
    }
  in
  let add =
    {
      Func.name = "add";
      entry = 0;
      nregs = 3;
      blocks =
        [|
          {
            Func.body = [| Instr.Binop (Add, 2, 0, 1) |];
            term = Func.TailCall { callee = 2; args = [ 2 ] };
          };
        |];
    }
  in
  let inc =
    {
      Func.name = "inc";
      entry = 0;
      nregs = 1;
      blocks = [| { Func.body = [| Instr.Addi (0, 0, 1) |]; term = Func.Ret (Some 0) } |];
    }
  in
  { Program.name = "callprog"; funcs = [| main; add; inc |]; entry = 0 }

let test_program_validate () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Program.validate call_prog));
  let bad_callee =
    Program.with_entry_func call_prog
      (Func.map_blocks
         (fun _ b ->
           match b.Func.term with
           | Func.Call c -> { b with Func.term = Func.Call { c with callee = 9 } }
           | _ -> b)
         (Program.entry_func call_prog))
  in
  Alcotest.(check bool) "callee range" true (Result.is_error (Program.validate bad_callee));
  Alcotest.(check int) "n_funcs" 3 (Program.n_funcs call_prog);
  Alcotest.(check int)
    "size sums functions"
    (Func.static_size call_prog.Program.funcs.(0)
    + Func.static_size call_prog.Program.funcs.(1)
    + Func.static_size call_prog.Program.funcs.(2))
    (Program.static_size call_prog)

let test_interp_calls () =
  (* add(10, 4) = 15 (tail inc), then add(15, 4) = 20 *)
  let mem = Array.make 2 0 in
  let r = Interp.run call_prog ~mem in
  Alcotest.(check (option int)) "nested calls + tail call" (Some 20) r.return_value;
  Alcotest.(check int) "store went to mem via fresh frames" 20 mem.(0)

let test_interp_call_frames_isolated () =
  (* the callee clobbers its own r0/r1; the caller's survive *)
  let callee =
    {
      Func.name = "clobber";
      entry = 0;
      nregs = 2;
      blocks =
        [|
          { Func.body = [| Instr.Li (0, 999); Instr.Li (1, 999) |]; term = Func.Ret (Some 0) };
        |];
    }
  in
  let main =
    {
      Func.name = "main";
      entry = 0;
      nregs = 3;
      blocks =
        [|
          {
            Func.body = [| Instr.Li (0, 1); Instr.Li (1, 2) |];
            term = Func.Call { callee = 1; args = []; ret = Some 2; next = 1 };
          };
          {
            Func.body = [| Instr.Binop (Add, 0, 0, 1) |];
            term = Func.Ret (Some 0);
          };
        |];
    }
  in
  let p = { Program.name = "frames"; funcs = [| main; callee |]; entry = 0 } in
  let r = Interp.run p ~mem:(Array.make 1 0) in
  Alcotest.(check (option int)) "caller registers intact" (Some 3) r.return_value

let test_interp_call_depth () =
  let self =
    {
      Func.name = "rec";
      entry = 0;
      nregs = 1;
      blocks = [| { Func.body = [||]; term = Func.TailCall { callee = 0; args = [] } } |];
    }
  in
  let p = { Program.name = "rec"; funcs = [| self |]; entry = 0 } in
  Alcotest.check_raises "depth" (Interp.Stuck "call depth exceeded") (fun () ->
      ignore (Interp.run p ~mem:(Array.make 1 0)))

let test_interp_ret_none_into_value () =
  let callee =
    {
      Func.name = "noval";
      entry = 0;
      nregs = 1;
      blocks = [| { Func.body = [||]; term = Func.Ret None } |];
    }
  in
  let main =
    {
      Func.name = "main";
      entry = 0;
      nregs = 1;
      blocks =
        [|
          { Func.body = [||]; term = Func.Call { callee = 1; args = []; ret = Some 0; next = 1 } };
          { Func.body = [||]; term = Func.Ret (Some 0) };
        |];
    }
  in
  let p = { Program.name = "noval"; funcs = [| main; callee |]; entry = 0 } in
  Alcotest.check_raises "valueless ret" (Interp.Stuck "f1 returned no value") (fun () ->
      ignore (Interp.run p ~mem:(Array.make 1 0)))

(* diamond: 0 -> (1 | 2) -> 3, plus unreachable 4 *)
let diamond =
  {
    Func.name = "diamond";
    entry = 0;
    nregs = 2;
    blocks =
      [|
        {
          Func.body = [| Instr.Li (0, 1) |];
          term = Func.Branch { cond = 0; site = 42; taken = 1; not_taken = 2 };
        };
        { Func.body = [||]; term = Func.Jump 3 };
        { Func.body = [||]; term = Func.Jump 3 };
        { Func.body = [||]; term = Func.Ret (Some 0) };
        { Func.body = [||]; term = Func.Ret None };
      |];
  }

(* The distiller's hot path, seen through the layout it drives:
   [hot_cold_split] puts the path's blocks first, in path order.  In the
   diamond, blocks 1 and 2 are both [Jump 3], so the entry branch's
   relabelled targets tell which of them the path took. *)
let test_hot_path_extract () =
  let terms f = Array.map (fun b -> b.Func.term) f.Func.blocks in
  (* assumed not-taken: old blocks 0, 2, 3 come first, then 1 and 4 *)
  let f, split =
    P.hot_cold_split ~assume:(fun s -> if s = 42 then Some false else None) diamond
  in
  Alcotest.(check int) "hot blocks" 3 split.P.hot_blocks;
  Alcotest.(check int) "cold blocks" 2 split.P.cold_blocks;
  Alcotest.(check int) "cold entries" 1 split.P.cold_entries;
  Alcotest.(check bool) "layout 0 2 3 | 1 4" true
    (terms f
    = [|
        Func.Branch { cond = 0; site = 42; taken = 3; not_taken = 1 };
        Func.Jump 2;
        Func.Ret (Some 0);
        Func.Jump 2;
        Func.Ret None;
      |]);
  (* unassumed: static prediction follows taken, old blocks 0, 1, 3 first *)
  let g, split = P.hot_cold_split ~assume:(fun _ -> None) diamond in
  Alcotest.(check int) "predicted hot blocks" 3 split.P.hot_blocks;
  Alcotest.(check bool) "layout 0 1 3 | 2 4" true
    (terms g
    = [|
        Func.Branch { cond = 0; site = 42; taken = 1; not_taken = 3 };
        Func.Jump 2;
        Func.Ret (Some 0);
        Func.Jump 2;
        Func.Ret None;
      |])

let test_hot_path_stops_on_loop () =
  let loop =
    {
      Func.name = "loop";
      entry = 0;
      nregs = 1;
      blocks =
        [|
          { Func.body = [||]; term = Func.Jump 1 };
          { Func.body = [||]; term = Func.Jump 0 };
        |];
    }
  in
  let f, split = P.hot_cold_split ~assume:(fun _ -> None) loop in
  Alcotest.(check int) "one unrolling" 2 split.P.hot_blocks;
  Alcotest.(check int) "no cold blocks" 0 split.P.cold_blocks;
  Alcotest.(check int) "no cold entries" 0 split.P.cold_entries;
  Alcotest.(check bool) "layout unchanged" true (f == loop)

let test_synth_program_shape () =
  let make () =
    Synth.program ~rng:(Rs_util.Prng.create 7) ~helper_sites:2 ~loop_trips:3 ~first_site:0 ()
  in
  let t = make () and t2 = make () in
  Alcotest.(check bool) "valid" true (Result.is_ok (Program.validate t.prog));
  Alcotest.(check int) "four functions" 4 (Program.n_funcs t.prog);
  Alcotest.(check (array int)) "input sites" [| 0; 1; 2; 3; 4 |] t.site_ids;
  Alcotest.(check (array int)) "loop site" [| 5 |] t.loop_sites;
  Alcotest.(check int) "deterministic" (Program.static_size t.prog)
    (Program.static_size t2.prog);
  (* interprets to completion, reporting loop and helper sites *)
  let r = Synth.run t ~outcomes:[| true; false; true; true; false |] in
  Alcotest.(check bool) "terminates with a value" true (r.Interp.return_value <> None);
  let mem = Array.make t.mem_size 0 in
  Synth.set_inputs t ~mem [| true; false; true; true; false |];
  let seen = branch_outcomes t.prog ~mem in
  let helper_sites = List.filter (fun (s, _) -> s < 5) seen in
  (* per trip: f1's 2 sites, g's site, f2's 2 sites, g's site again
     (called from f1, tail-called from f2) *)
  Alcotest.(check int) "3 trips x 6 site executions" 18 (List.length helper_sites);
  List.iter
    (fun (s, taken) ->
      Alcotest.(check bool)
        (Printf.sprintf "site %d outcome" s)
        [| true; false; true; true; false |].(s) taken)
    helper_sites

let test_synth_program_input_sensitivity () =
  let t =
    Synth.program ~rng:(Rs_util.Prng.create 11) ~helper_sites:2 ~loop_trips:2 ~first_site:0 ()
  in
  let r1 = Synth.run t ~outcomes:[| true; true; true; true; true |] in
  let r2 = Synth.run t ~outcomes:[| false; true; true; true; true |] in
  Alcotest.(check bool) "flipping one site changes the result" true
    (r1.Interp.return_value <> r2.Interp.return_value)

let suite =
  [
    Alcotest.test_case "def/uses" `Quick test_def_uses;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "map_regs" `Quick test_map_regs;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "static size and sites" `Quick test_static_size_and_sites;
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "interp arithmetic" `Quick test_interp_arith;
    Alcotest.test_case "interp memory and branch" `Quick test_interp_memory_and_branch;
    Alcotest.test_case "interp out of bounds" `Quick test_interp_oob;
    Alcotest.test_case "interp step budget" `Quick test_interp_step_budget;
    Alcotest.test_case "interp initial regs" `Quick test_interp_initial_regs;
    Alcotest.test_case "synth valid and deterministic" `Quick test_synth_valid_and_deterministic;
    Alcotest.test_case "synth outcomes respected" `Quick test_synth_outcomes_respected;
    Alcotest.test_case "synth paths differ" `Quick test_synth_paths_differ;
    Alcotest.test_case "figure1 shape" `Quick test_figure1_shape;
    Alcotest.test_case "program validate" `Quick test_program_validate;
    Alcotest.test_case "interp calls" `Quick test_interp_calls;
    Alcotest.test_case "interp call frames isolated" `Quick test_interp_call_frames_isolated;
    Alcotest.test_case "interp call depth" `Quick test_interp_call_depth;
    Alcotest.test_case "interp valueless ret" `Quick test_interp_ret_none_into_value;
    Alcotest.test_case "path extract" `Quick test_hot_path_extract;
    Alcotest.test_case "path stops on loop" `Quick test_hot_path_stops_on_loop;
    Alcotest.test_case "synth program shape" `Quick test_synth_program_shape;
    Alcotest.test_case "synth program input sensitivity" `Quick test_synth_program_input_sensitivity;
  ]
