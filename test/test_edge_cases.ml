(* Corner-case tests across the engines: absent rows, empty cursors,
   multi-key commits, upgrade deadlocks, three-party deadlocks, repeated
   writes, mixed multiversion levels, and Degree 0's unsound rollback. *)

module P = Core.Program
module L = Isolation.Level
module Executor = Runtime.Executor
module Predicate = Storage.Predicate

let run = Support.run
let run_mixed = Support.run_mixed

let test_absent_rows () =
  let t =
    P.make
      [ P.Read "ghost";            (* absent: observed as None *)
        P.Delete "ghost";          (* deleting an absent row is a no-op *)
        P.Write ("ghost", P.const 5); (* writing creates it *)
        P.Read "ghost"; P.Commit ]
  in
  let r = run L.Serializable [ t ] [ 1; 1; 1; 1; 1 ] in
  Alcotest.(check (list (pair string int))) "created" [ ("ghost", 5) ]
    r.Executor.final;
  match Workload.Scenario.reads_of r 1 "ghost" with
  | [ None; Some 5 ] -> ()
  | _ -> Alcotest.fail "expected absent then 5"

let test_empty_cursor () =
  let nothing = Predicate.key_prefix ~name:"None" "zzz_" in
  let t =
    P.make
      [
        P.Open_cursor { cursor = "c"; pred = nothing; for_update = false };
        P.Fetch "c"; P.Fetch "c"; P.Close_cursor "c"; P.Commit;
      ]
  in
  let r = run ~initial:[ ("a", 1) ] L.Cursor_stability [ t ] [ 1; 1; 1; 1; 1 ] in
  Alcotest.(check Support.exec_status) "commits cleanly" Executor.Committed
    (List.assoc 1 r.Executor.statuses)

let test_cursor_write_without_fetch_raises () =
  let t =
    P.make
      [
        P.Open_cursor { cursor = "c"; pred = Predicate.all; for_update = false };
        P.Cursor_write ("c", P.const 1); P.Commit;
      ]
  in
  Alcotest.(check bool) "invalid cursor write rejected" true
    (try
       ignore (run ~initial:[ ("a", 1) ] L.Serializable [ t ] [ 1; 1; 1 ]);
       false
     with Invalid_argument _ -> true)

let test_fetch_without_open_raises () =
  let t = P.make [ P.Fetch "nope"; P.Commit ] in
  Alcotest.(check bool) "fetch without open rejected" true
    (try
       ignore (run L.Serializable [ t ] [ 1; 1 ]);
       false
     with Invalid_argument _ -> true)

let test_unread_expr_raises () =
  let t = P.make [ P.Write ("x", P.read_plus "never_read" 1); P.Commit ] in
  Alcotest.(check bool) "expression over unread key rejected" true
    (try
       ignore (run ~initial:[ ("x", 0) ] L.Serializable [ t ] [ 1; 1 ]);
       false
     with Invalid_argument _ -> true)

(* Two readers both upgrading to a write on the same item: the classic
   upgrade deadlock. *)
let test_upgrade_deadlock () =
  let u = P.make [ P.Read "x"; P.Write ("x", P.read_plus "x" 1); P.Commit ] in
  let r =
    run ~initial:[ ("x", 0) ] L.Repeatable_read [ u; u ] [ 1; 2; 1; 2; 1; 2 ]
  in
  Alcotest.(check int) "one deadlock" 1 r.Executor.deadlock_aborts;
  Alcotest.(check (option int)) "survivor's increment applied" (Some 1)
    (List.assoc_opt "x" r.Executor.final)

(* A three-party deadlock cycle: T1 -> T2 -> T3 -> T1. *)
let test_three_party_deadlock () =
  let t a b = P.make [ P.Read a; P.Write (b, P.const 1); P.Commit ] in
  let r =
    run
      ~initial:[ ("x", 0); ("y", 0); ("z", 0) ]
      L.Serializable
      [ t "x" "y"; t "y" "z"; t "z" "x" ]
      [ 1; 2; 3; 1; 2; 3; 1; 2; 3 ]
  in
  Alcotest.(check bool) "at least one deadlock" true (r.Executor.deadlock_aborts >= 1);
  Alcotest.(check bool) "someone commits" true
    (List.exists (fun (_, s) -> s = Executor.Committed) r.Executor.statuses);
  Alcotest.(check bool) "resulting history serializable" true
    (History.Conflict.is_serializable r.Executor.history)

(* Writing the same item twice and aborting restores the original value. *)
let test_double_write_undo () =
  let t =
    P.make
      [ P.Write ("x", P.const 1); P.Write ("x", P.const 2); P.Abort ]
  in
  let r = run ~initial:[ ("x", 7) ] L.Serializable [ t ] [ 1; 1; 1 ] in
  Alcotest.(check (option int)) "original restored" (Some 7)
    (List.assoc_opt "x" r.Executor.final)

(* Insert then delete in one transaction leaves nothing, under both
   families. *)
let test_insert_then_delete () =
  let t = P.make [ P.Insert ("k", P.const 1); P.Delete "k"; P.Commit ] in
  List.iter
    (fun level ->
      let r = run level [ t ] [ 1; 1; 1 ] in
      Alcotest.(check (list (pair string int)))
        ("nothing remains at " ^ L.name level)
        [] r.Executor.final)
    [ L.Serializable; L.Snapshot ]

(* A snapshot scan excludes the transaction's own deletions. *)
let test_scan_excludes_own_delete () =
  let all = Predicate.key_prefix ~name:"All" "" in
  let t = P.make [ P.Delete "a"; P.Scan all; P.Commit ] in
  let r = run ~initial:[ ("a", 1); ("b", 2) ] L.Snapshot [ t ] [ 1; 1; 1 ] in
  match Workload.Scenario.scans_of r 1 "All" with
  | [ rows ] ->
    Alcotest.(check (list (pair string int))) "own delete hidden" [ ("b", 2) ] rows
  | _ -> Alcotest.fail "expected one scan"

(* Snapshot Isolation and Oracle Read Consistency mix in one execution. *)
let test_mixed_mv_levels () =
  let rereader = P.make [ P.Read "x"; P.Read "x"; P.Commit ] in
  let writer = P.make [ P.Write ("x", P.const 9); P.Commit ] in
  let r =
    run_mixed ~initial:[ ("x", 1) ]
      [ L.Snapshot; L.Serializable_snapshot; L.Oracle_read_consistency ]
      [ rereader; P.make [ P.Read "y"; P.Commit ]; writer ]
      [ 1; 3; 3; 1; 1; 2; 2 ]
  in
  Alcotest.(check bool) "SI reader repeats its read" false
    (Workload.Scenario.unrepeatable_read r 1 "x");
  Alcotest.(check bool) "all terminate" true
    (List.for_all (fun (_, s) -> s = Executor.Committed) r.Executor.statuses)

(* Degree 0's short write locks make rollback unsound: T1's abort restores
   its before-image over T2's committed update — the engine-level twin of
   the recovery demonstration. *)
let test_degree0_unsound_rollback () =
  let t1 = P.make [ P.Write ("x", P.const 1); P.Abort ] in
  let t2 = P.make [ P.Write ("x", P.const 2); P.Commit ] in
  let r = run ~initial:[ ("x", 0) ] L.Degree_0 [ t1; t2 ] [ 1; 2; 2; 1 ] in
  Alcotest.(check Support.exec_status) "T2 committed" Executor.Committed
    (List.assoc 2 r.Executor.statuses);
  Alcotest.(check (option int)) "T2's committed update wiped out" (Some 0)
    (List.assoc_opt "x" r.Executor.final)

(* ...and the same interleaving at READ UNCOMMITTED (long write locks) is
   sound. *)
let test_degree1_sound_rollback () =
  let t1 = P.make [ P.Write ("x", P.const 1); P.Abort ] in
  let t2 = P.make [ P.Write ("x", P.const 2); P.Commit ] in
  let r = run ~initial:[ ("x", 0) ] L.Read_uncommitted [ t1; t2 ] [ 1; 2; 2; 1 ] in
  Alcotest.(check (option int)) "T2's update survives" (Some 2)
    (List.assoc_opt "x" r.Executor.final)

(* Multi-key commits install all versions at one timestamp. *)
let test_multikey_commit_atomic_visibility () =
  let writer =
    P.make
      [ P.Write ("x", P.const 1); P.Write ("y", P.const 1); P.Commit ]
  in
  let reader = P.make [ P.Read "x"; P.Read "y"; P.Commit ] in
  (* The reader starts mid-write but, reading its snapshot, sees neither
     (never one of the two). *)
  let r =
    run ~initial:[ ("x", 0); ("y", 0) ] L.Snapshot [ writer; reader ]
      [ 1; 2; 1; 1; 2; 2 ]
  in
  (match
     ( Workload.Scenario.last_read r 2 "x",
       Workload.Scenario.last_read r 2 "y" )
   with
  | Some x, Some y ->
    Alcotest.(check bool) "all-or-nothing visibility" true
      ((x = 0 && y = 0) || (x = 1 && y = 1))
  | _ -> Alcotest.fail "reads missing");
  (* And a reader starting after the commit sees both. *)
  let r2 =
    run ~initial:[ ("x", 0); ("y", 0) ] L.Snapshot [ writer; reader ]
      [ 1; 1; 1; 1; 2; 2; 2 ]
  in
  Alcotest.(check (option int)) "x visible" (Some 1)
    (Workload.Scenario.last_read r2 2 "x");
  Alcotest.(check (option int)) "y visible" (Some 1)
    (Workload.Scenario.last_read r2 2 "y")

(* The same transaction re-reading through its own cursor after an update
   sees the updated value (locking engine re-reads rows at fetch time). *)
let test_cursor_sees_own_update () =
  let t =
    P.make
      [
        P.Write ("a", P.const 42);
        P.Open_cursor { cursor = "c"; pred = Predicate.item "a"; for_update = false };
        P.Fetch "c";
        P.Commit;
      ]
  in
  let r = run ~initial:[ ("a", 1) ] L.Serializable [ t ] [ 1; 1; 1; 1 ] in
  Alcotest.(check (option int)) "fetch sees own write" (Some 42)
    (Workload.Scenario.last_read r 1 "a")

let suite =
  [
    Alcotest.test_case "absent rows" `Quick test_absent_rows;
    Alcotest.test_case "empty cursor" `Quick test_empty_cursor;
    Alcotest.test_case "cursor write without fetch" `Quick
      test_cursor_write_without_fetch_raises;
    Alcotest.test_case "fetch without open" `Quick test_fetch_without_open_raises;
    Alcotest.test_case "expression over unread key" `Quick test_unread_expr_raises;
    Alcotest.test_case "upgrade deadlock" `Quick test_upgrade_deadlock;
    Alcotest.test_case "three-party deadlock" `Quick test_three_party_deadlock;
    Alcotest.test_case "double write undo" `Quick test_double_write_undo;
    Alcotest.test_case "insert then delete" `Quick test_insert_then_delete;
    Alcotest.test_case "scan excludes own delete" `Quick
      test_scan_excludes_own_delete;
    Alcotest.test_case "mixed multiversion levels" `Quick test_mixed_mv_levels;
    Alcotest.test_case "Degree 0 rollback is unsound" `Quick
      test_degree0_unsound_rollback;
    Alcotest.test_case "Degree 1 rollback is sound" `Quick
      test_degree1_sound_rollback;
    Alcotest.test_case "multi-key commit atomic visibility" `Quick
      test_multikey_commit_atomic_visibility;
    Alcotest.test_case "cursor sees own update" `Quick test_cursor_sees_own_update;
  ]
