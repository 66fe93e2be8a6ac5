type stats = {
  inlined_calls : int;
  hot_blocks : int;
  cold_blocks : int;
  cold_entries : int;
}

type result = {
  distilled : Rs_ir.Program.t;
  original_size : int;
  distilled_size : int;
  stats : stats;
}

let distill (p : Rs_ir.Program.t) (assumptions : Assumptions.t) =
  let pass name = Rs_obs.Fault_hook.hit ~site:"distill.pass" ~key:name in
  let compute () =
    let assume = Assumptions.direction assumptions in
    pass "prune_edges";
    (* load-value assumptions name blocks of the entry function; branch
       assumptions are global site ids and apply everywhere *)
    let branch_only = { assumptions with Assumptions.loads = [] } in
    let p1 =
      Rs_ir.Program.map_funcs
        (fun fi f ->
          Passes.apply_assumptions
            (if fi = p.Rs_ir.Program.entry then assumptions else branch_only)
            f)
        p
    in
    pass "inline_calls";
    let p2, inlined = Passes.inline_calls ~assume p1 in
    pass "optimize";
    let p3 = Rs_ir.Program.map_funcs (fun _ f -> Passes.optimize f) p2 in
    let p3 = Passes.prune_dead_funcs p3 in
    pass "hot_cold_split";
    let entry_f, split = Passes.hot_cold_split ~assume (Rs_ir.Program.entry_func p3) in
    let distilled = Rs_ir.Program.with_entry_func p3 entry_f in
    (match Rs_ir.Program.validate distilled with
    | Ok () -> ()
    | Error e -> invalid_arg ("Distill produced an invalid program: " ^ e));
    {
      distilled;
      original_size = Rs_ir.Program.static_size p;
      distilled_size = Rs_ir.Program.static_size distilled;
      stats =
        {
          inlined_calls = inlined;
          hot_blocks = split.Passes.hot_blocks;
          cold_blocks = split.Passes.cold_blocks;
          cold_entries = split.Passes.cold_entries;
        };
    }
  in
  (* Bounded retries around the pipeline, the memos' rule: a fault plan
     with a finite per-key raise budget yields identical results once
     the budget is spent. *)
  Rs_util.Memo.retry compute
