(* Inconsistent analysis (the paper's H1 and H2): an auditor sums two
   account balances while a transfer is in flight. Depending on the
   isolation level, the audit sees 100 (correct), 60 (dirty read, H1), or
   140 (read skew, H2).

     dune exec examples/bank_audit.exe *)

module P = Core.Program
module L = Isolation.Level
module Executor = Runtime.Executor

let transfer =
  P.make ~name:"transfer"
    [ P.Read "checking"; P.Write ("checking", P.read_plus "checking" (-40));
      P.Read "savings"; P.Write ("savings", P.read_plus "savings" 40);
      P.Commit ]

let audit =
  P.make ~name:"audit" [ P.Read "checking"; P.Read "savings"; P.Commit ]

let initial = [ ("checking", 50); ("savings", 50) ]

(* The audit's view under one interleaving at one level. *)
let audit_view level schedule =
  let cfg = Executor.config ~initial [ level; level ] in
  let r = Executor.run cfg [ transfer; audit ] ~schedule in
  match
    ( Workload.Scenario.last_read r 2 "checking",
      Workload.Scenario.last_read r 2 "savings" )
  with
  | Some c, Some s -> (c + s, r)
  | _ -> (0, Executor.run cfg [ transfer; audit ] ~schedule)

(* Sweep every interleaving and report the audit totals each level can
   produce. *)
let totals_per_level level =
  let sizes = Sim.Interleave.sizes_of_programs [ transfer; audit ] in
  let totals = Hashtbl.create 4 in
  let _, explored =
    Sim.Interleave.exists_merge sizes (fun schedule ->
        let total, _ = audit_view level schedule in
        Hashtbl.replace totals total ();
        false)
  in
  let seen = Hashtbl.fold (fun t () acc -> t :: acc) totals [] in
  (List.sort compare seen, explored)

let () =
  Printf.printf
    "The bank invariant says checking + savings = 100. A transfer moves 40\n\
     while an audit sums the two accounts. Possible audit totals, over all\n\
     interleavings:\n\n";
  List.iter
    (fun level ->
      let totals, explored = totals_per_level level in
      Printf.printf "  %-26s %-18s (%d interleavings)\n" (L.name level)
        (String.concat ", " (List.map string_of_int totals))
        explored)
    [ L.Read_uncommitted; L.Read_committed; L.Repeatable_read;
      L.Serializable; L.Snapshot; L.Oracle_read_consistency ];
  Printf.printf
    "\n\
     100 is the consistent answer. 60 is the paper's H1 (the audit read the\n\
     debited checking account before the credit committed - a dirty read).\n\
     140 is the paper's H2 (read skew: checking before the transfer,\n\
     savings after it committed). REPEATABLE READ, SERIALIZABLE and the\n\
     multiversion levels only ever answer 100.\n\n";
  (* A read-only audit (the [BHG] Multiversion Mixed Method) gets the
     consistent answer on a locking database without ever blocking. *)
  let ro_totals =
    let sizes = Sim.Interleave.sizes_of_programs [ transfer; audit ] in
    let totals = Hashtbl.create 4 in
    let blocked = ref 0 in
    let _ =
      Sim.Interleave.exists_merge sizes (fun schedule ->
          let cfg =
            Executor.config ~initial ~read_only:[ false; true ]
              [ L.Serializable; L.Serializable ]
          in
          let r = Executor.run cfg [ transfer; audit ] ~schedule in
          blocked := !blocked + r.Executor.blocked_attempts;
          (match
             ( Workload.Scenario.last_read r 2 "checking",
               Workload.Scenario.last_read r 2 "savings" )
           with
          | Some c, Some s -> Hashtbl.replace totals (c + s) ()
          | _ -> ());
          false)
    in
    (List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) totals []),
     !blocked)
  in
  let totals, blocked = ro_totals in
  Printf.printf
    "A READ-ONLY audit at SERIALIZABLE (the Multiversion Mixed Method)\n\
     answers %s across all interleavings, with %d blocked attempts.\n\n"
    (String.concat ", " (List.map string_of_int totals))
    blocked;
  (* Show the two famous bad histories concretely. *)
  let dirty_total, dirty = audit_view L.Read_uncommitted [ 1; 1; 2; 2; 2; 1; 1; 1 ] in
  Printf.printf "H1 live at READ UNCOMMITTED (audit total %d):\n  %s\n" dirty_total
    (History.to_string dirty.Executor.history);
  let skew_total, skew = audit_view L.Read_committed [ 2; 1; 1; 1; 1; 1; 2; 2 ] in
  Printf.printf "H2 live at READ COMMITTED (audit total %d):\n  %s\n" skew_total
    (History.to_string skew.Executor.history)
