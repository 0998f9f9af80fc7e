(* Behavioral tests for the locking scheduler, one per signature behavior
   of the Table 2 protocols: dirty reads at READ UNCOMMITTED, read locks
   at READ COMMITTED, cursor holds at Cursor Stability, long read locks at
   REPEATABLE READ, predicate locks at SERIALIZABLE, rollback, deadlocks
   and mixed levels. *)

module P = Core.Program
module L = Isolation.Level
module Ph = Phenomena.Phenomenon
module Executor = Runtime.Executor
module Predicate = Storage.Predicate

let run = Support.run
let run_mixed = Support.run_mixed

let writer_then_abort =
  P.make ~name:"writer" [ P.Write ("x", P.const 10); P.Abort ]

let reader = P.make ~name:"reader" [ P.Read "x"; P.Commit ]

let test_dirty_read_at_ru () =
  let r =
    run ~initial:[ ("x", 1) ] L.Read_uncommitted [ writer_then_abort; reader ]
      [ 1; 2; 2; 1 ]
  in
  Alcotest.(check bool) "P1 occurs" true
    (Phenomena.Detect.occurs Ph.P1 r.Executor.history);
  Alcotest.(check (list (pair string int))) "abort restored x" [ ("x", 1) ]
    r.Executor.final

let test_no_dirty_read_at_rc () =
  let r =
    run ~initial:[ ("x", 1) ] L.Read_committed [ writer_then_abort; reader ]
      [ 1; 2; 2; 1 ]
  in
  Alcotest.(check bool) "P1 prevented" false
    (Phenomena.Detect.occurs Ph.P1 r.Executor.history);
  Alcotest.(check bool) "the read blocked at least once" true
    (r.Executor.blocked_attempts > 0)

let test_fuzzy_read_at_rc_not_rr () =
  let rereader = P.make [ P.Read "x"; P.Read "x"; P.Commit ] in
  let updater = P.make [ P.Write ("x", P.const 9); P.Commit ] in
  let sched = [ 1; 2; 2; 1; 1 ] in
  let rc = run ~initial:[ ("x", 1) ] L.Read_committed [ rereader; updater ] sched in
  Alcotest.(check bool) "A2 at READ COMMITTED" true
    (Phenomena.Detect.occurs Ph.A2 rc.Executor.history);
  let rr = run ~initial:[ ("x", 1) ] L.Repeatable_read [ rereader; updater ] sched in
  Alcotest.(check bool) "no A2 at REPEATABLE READ" false
    (Phenomena.Detect.occurs Ph.A2 rr.Executor.history)

let emp = Predicate.key_prefix ~name:"Emp" "emp_"

let test_phantom_at_rr_not_ser () =
  let scanner = P.make [ P.Scan emp; P.Scan emp; P.Commit ] in
  let inserter = P.make [ P.Insert ("emp_new", P.const 1); P.Commit ] in
  let sched = [ 1; 2; 2; 1; 1 ] in
  let rr =
    run ~initial:[ ("emp_a", 1) ] ~predicates:[ emp ] L.Repeatable_read
      [ scanner; inserter ] sched
  in
  Alcotest.(check bool) "A3 at REPEATABLE READ" true
    (Phenomena.Detect.occurs Ph.A3 rr.Executor.history);
  let ser =
    run ~initial:[ ("emp_a", 1) ] ~predicates:[ emp ] L.Serializable
      [ scanner; inserter ] sched
  in
  Alcotest.(check bool) "no A3 at SERIALIZABLE" false
    (Phenomena.Detect.occurs Ph.A3 ser.Executor.history)

let test_degree0_dirty_write_breaks_constraint () =
  let ones = P.make [ P.Write ("x", P.const 1); P.Write ("y", P.const 1); P.Commit ] in
  let twos = P.make [ P.Write ("x", P.const 2); P.Write ("y", P.const 2); P.Commit ] in
  (* w1[x] w2[x] w2[y] c2 w1[y] c1 — the paper's example. *)
  let d0 =
    run ~initial:[ ("x", 0); ("y", 0) ] L.Degree_0 [ ones; twos ]
      [ 1; 2; 2; 2; 1; 1 ]
  in
  Alcotest.(check bool) "x <> y under Degree 0" true
    (List.assoc "x" d0.Executor.final <> List.assoc "y" d0.Executor.final);
  let ru =
    run ~initial:[ ("x", 0); ("y", 0) ] L.Read_uncommitted [ ones; twos ]
      [ 1; 2; 2; 2; 1; 1 ]
  in
  Alcotest.(check bool) "x = y under Degree 1 long write locks" true
    (List.assoc "x" ru.Executor.final = List.assoc "y" ru.Executor.final)

let test_deadlock_detected_and_victim_aborted () =
  let t1 = P.make [ P.Read "x"; P.Write ("y", P.const 1); P.Commit ] in
  let t2 = P.make [ P.Read "y"; P.Write ("x", P.const 2); P.Commit ] in
  let r =
    run ~initial:[ ("x", 0); ("y", 0) ] L.Serializable [ t1; t2 ]
      [ 1; 2; 1; 2; 1; 2 ]
  in
  Alcotest.(check int) "one deadlock" 1 r.Executor.deadlock_aborts;
  Alcotest.(check Support.exec_status) "the younger transaction is the victim"
    (Executor.Aborted Core.Engine.Deadlock_victim)
    (List.assoc 2 r.Executor.statuses);
  Alcotest.(check Support.exec_status) "the other commits" Executor.Committed
    (List.assoc 1 r.Executor.statuses);
  Alcotest.(check bool) "resulting history is serializable" true
    (History.Conflict.is_serializable r.Executor.history)

let test_abort_rolls_back_inserts_and_deletes () =
  let t =
    P.make
      [ P.Insert ("new", P.const 5); P.Delete "x";
        P.Write ("y", P.const 99); P.Abort ]
  in
  let r = run ~initial:[ ("x", 1); ("y", 2) ] L.Serializable [ t ] [ 1; 1; 1; 1 ] in
  Alcotest.(check (list (pair string int)))
    "all effects undone"
    [ ("x", 1); ("y", 2) ]
    r.Executor.final

let cursor_add amount =
  P.make
    [
      P.Open_cursor { cursor = "c"; pred = Predicate.item "x"; for_update = false };
      P.Fetch "c";
      P.Cursor_write ("c", P.read_plus "x" amount);
      P.Commit;
    ]

(* Both transactions access x through cursors. Under Cursor Stability the
   held cursor locks turn the lost update into a deadlock: the victim
   aborts and no committed update is lost. Under READ COMMITTED the same
   schedule silently loses an update. *)
let test_cursor_stability_holds_current_row () =
  let sched = [ 1; 1; 2; 2; 1; 2; 1; 2 ] in
  let cs =
    run ~initial:[ ("x", 100) ] L.Cursor_stability
      [ cursor_add 30; cursor_add 20 ] sched
  in
  Alcotest.(check bool) "no lost update under CS" false
    (Phenomena.Detect.occurs Ph.P4 cs.Executor.history);
  Alcotest.(check bool) "the conflict surfaced as blocking or deadlock" true
    (cs.Executor.blocked_attempts > 0);
  let rc =
    run ~initial:[ ("x", 100) ] L.Read_committed
      [ cursor_add 30; cursor_add 20 ] sched
  in
  Alcotest.(check bool) "lost update under RC" true
    (Phenomena.Detect.occurs Ph.P4 rc.Executor.history);
  Alcotest.(check bool) "an update is lost" true
    (List.assoc_opt "x" rc.Executor.final <> Some 150)

let test_cursor_lock_released_on_move () =
  let scan_all = Predicate.key_prefix ~name:"All" "" in
  let t1 =
    P.make
      [
        P.Open_cursor { cursor = "c"; pred = scan_all; for_update = false };
        P.Fetch "c"; (* on x *)
        P.Fetch "c"; (* moves to y, releasing x *)
        P.Commit;
      ]
  in
  let t2 = P.make [ P.Write ("x", P.const 77); P.Commit ] in
  (* T2 writes x after T1's cursor has moved on to y: no blocking. *)
  let r =
    run ~initial:[ ("x", 1); ("y", 2) ] L.Cursor_stability [ t1; t2 ]
      [ 1; 1; 1; 2; 2; 1 ]
  in
  Alcotest.(check int) "no blocking after the move" 0 r.Executor.blocked_attempts;
  Alcotest.(check (option int)) "write applied" (Some 77)
    (List.assoc_opt "x" r.Executor.final)

let test_mixed_levels_in_one_execution () =
  (* T1 runs SERIALIZABLE, T2 READ UNCOMMITTED: T2 sees T1's uncommitted
     write even though T1 is fully protected. *)
  let t1 = P.make [ P.Write ("x", P.const 5); P.Commit ] in
  let t2 = P.make [ P.Read "x"; P.Commit ] in
  let r =
    run_mixed ~initial:[ ("x", 0) ]
      [ L.Serializable; L.Read_uncommitted ]
      [ t1; t2 ] [ 1; 2; 2; 1 ]
  in
  Alcotest.(check bool) "dirty read by the weak transaction" true
    (Phenomena.Detect.occurs Ph.P1 r.Executor.history)

let test_auto_commit_appended () =
  let t = P.make [ P.Write ("x", P.const 3) ] in
  let r = run ~initial:[ ("x", 0) ] L.Serializable [ t ] [ 1 ] in
  Alcotest.(check Support.exec_status) "auto-committed" Executor.Committed
    (List.assoc 1 r.Executor.statuses);
  Alcotest.(check (option int)) "write persisted" (Some 3)
    (List.assoc_opt "x" r.Executor.final)

let test_determinism () =
  let rand = Random.State.make [| 42 |] in
  let programs =
    Workload.Generators.random_programs ~rand ~keys:[ "x"; "y"; "z" ] ~txns:3
      ~ops:5 ()
  in
  let schedule = Workload.Generators.random_schedule ~rand programs in
  let go () =
    run ~initial:[ ("x", 0); ("y", 0); ("z", 0) ] L.Serializable programs
      schedule
  in
  let a = go () and b = go () in
  Alcotest.(check Support.history) "same history" a.Executor.history b.Executor.history;
  Alcotest.(check (list (pair string int))) "same final state" a.Executor.final
    b.Executor.final

let suite =
  [
    Alcotest.test_case "dirty read at READ UNCOMMITTED" `Quick
      test_dirty_read_at_ru;
    Alcotest.test_case "no dirty read at READ COMMITTED" `Quick
      test_no_dirty_read_at_rc;
    Alcotest.test_case "fuzzy read: RC yes, RR no" `Quick
      test_fuzzy_read_at_rc_not_rr;
    Alcotest.test_case "phantom: RR yes, SERIALIZABLE no" `Quick
      test_phantom_at_rr_not_ser;
    Alcotest.test_case "Degree 0 dirty writes break x=y" `Quick
      test_degree0_dirty_write_breaks_constraint;
    Alcotest.test_case "deadlock detection and victim" `Quick
      test_deadlock_detected_and_victim_aborted;
    Alcotest.test_case "abort rolls back inserts and deletes" `Quick
      test_abort_rolls_back_inserts_and_deletes;
    Alcotest.test_case "Cursor Stability holds the current row" `Quick
      test_cursor_stability_holds_current_row;
    Alcotest.test_case "cursor lock released on move" `Quick
      test_cursor_lock_released_on_move;
    Alcotest.test_case "mixed levels in one execution" `Quick
      test_mixed_levels_in_one_execution;
    Alcotest.test_case "auto-commit" `Quick test_auto_commit_appended;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]
