(* Phantoms under Snapshot Isolation: the paper's §4.2 job-task scenario.
   A project's tasks may total at most 8 hours. Two planners each scan the
   task list, see 7 hours, and insert a 1-hour task. The inserts touch
   different rows, so First-Committer-Wins lets both commit: 9 hours.
   Predicate locks (SERIALIZABLE) are the only cure.

     dune exec examples/phantom_tasks.exe *)

module P = Core.Program
module L = Isolation.Level
module Executor = Runtime.Executor
module Predicate = Storage.Predicate

let tasks = Predicate.key_prefix ~name:"Tasks" "task_"

let add_task key =
  P.make ~name:("add-" ^ key)
    [
      P.Scan tasks;
      P.Insert
        (key, fun env -> if P.scan_sum env "Tasks" <= 7 then 1 else 0);
      P.Commit;
    ]

let initial = [ ("task_design", 3); ("task_review", 4) ]

let run level schedule =
  let cfg = Executor.config ~initial ~predicates:[ tasks ] [ level; level ] in
  Executor.run cfg [ add_task "task_docs"; add_task "task_tests" ] ~schedule

let total final =
  List.fold_left
    (fun acc (k, v) ->
      if String.length k >= 5 && String.sub k 0 5 = "task_" then acc + v else acc)
    0 final

let worst_case level =
  let programs = [ add_task "task_docs"; add_task "task_tests" ] in
  let sizes = Sim.Interleave.sizes_of_programs programs in
  let worst = ref 0 in
  let _ =
    Sim.Interleave.count_merges sizes (fun schedule ->
        let r = run level schedule in
        worst := max !worst (total r.Executor.final);
        false)
  in
  !worst

let () =
  Printf.printf
    "Constraint: total task hours <= 8. Current total: 7. Two planners\n\
     each scan the tasks and insert a 1-hour task if there is room.\n\n";
  List.iter
    (fun level ->
      let worst = worst_case level in
      Printf.printf "  %-26s worst-case total %d hours%s\n" (L.name level)
        worst
        (if worst > 8 then "   <- PHANTOM BROKE THE CONSTRAINT" else ""))
    [ L.Read_committed; L.Repeatable_read; L.Snapshot; L.Serializable ];
  Printf.printf "\nThe phantom, live under Snapshot Isolation:\n";
  let r = run L.Snapshot [ 1; 2; 1; 2; 1; 2 ] in
  Printf.printf "  %s\n" (History.to_string r.Executor.history);
  Printf.printf "  final: %s (total %d)\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.Executor.final))
    (total r.Executor.final);
  Printf.printf
    "\n\
     Note the asymmetry the paper highlights in Remark 9 and Table 4:\n\
     Snapshot Isolation never shows a phantom to a RE-READ (A3 impossible -\n\
     each scan sees the same snapshot), yet the predicate constraint still\n\
     breaks (P3 'Sometimes Possible'). REPEATABLE READ is exactly the\n\
     opposite: its re-scans can see phantoms, but its long item locks stop\n\
     the write-skew flavors. Only SERIALIZABLE's long predicate locks close\n\
     the scenario completely.\n";
  (* Also show SERIALIZABLE resolving it: one planner deadlocks/waits and
     re-checks, finding no room. *)
  let r = run L.Serializable [ 1; 2; 1; 2; 1; 2 ] in
  Printf.printf "\nSERIALIZABLE on the same schedule:\n  %s\n  final total: %d\n"
    (History.to_string r.Executor.history)
    (total r.Executor.final)
