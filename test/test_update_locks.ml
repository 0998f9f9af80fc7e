(* Tests for U-mode (update) locks: the classical cure for upgrade
   deadlocks on for-update cursors. With U locks, two for-update fetches
   of the same row serialize by blocking; without them, the S-then-X
   upgrade produces a deadlock and a victim. *)

module P = Core.Program
module L = Isolation.Level
module LT = Locking.Lock_table
module Executor = Runtime.Executor
module Predicate = Storage.Predicate

let granted = function LT.Granted -> true | LT.Conflict _ -> false

let test_u_lock_compatibility () =
  let t = LT.create () in
  assert (granted (LT.acquire t ~owner:1 ~tag:LT.Long (LT.Update_item "x")));
  Alcotest.(check bool) "U compatible with S" true
    (granted (LT.acquire t ~owner:2 ~tag:LT.Long (LT.Read_item "x")));
  Alcotest.(check bool) "U excludes U" false
    (granted (LT.acquire t ~owner:3 ~tag:LT.Long (LT.Update_item "x")));
  Alcotest.(check bool) "U excludes X" false
    (granted
       (LT.acquire t ~owner:3 ~tag:LT.Long
          (LT.Write_item { k = "x"; before = None; after = None })))

let test_u_upgrade_waits_for_readers () =
  let t = LT.create () in
  assert (granted (LT.acquire t ~owner:1 ~tag:LT.Long (LT.Update_item "x")));
  assert (granted (LT.acquire t ~owner:2 ~tag:LT.Long (LT.Read_item "x")));
  (* The U holder's upgrade to X must wait for the reader... *)
  Alcotest.(check bool) "upgrade blocked by reader" false
    (granted
       (LT.acquire t ~owner:1 ~tag:LT.Long
          (LT.Write_item { k = "x"; before = None; after = None })));
  LT.release_all t ~owner:2;
  (* ...and proceeds once the reader is gone. *)
  Alcotest.(check bool) "upgrade proceeds" true
    (granted
       (LT.acquire t ~owner:1 ~tag:LT.Long
          (LT.Write_item { k = "x"; before = None; after = None })))

let cursor_add amount =
  P.make
    [
      P.Open_cursor { cursor = "c"; pred = Predicate.item "x"; for_update = true };
      P.Fetch "c";
      P.Cursor_write ("c", P.read_plus "x" amount);
      P.Commit;
    ]

let run ?(update_locks = false) level schedule =
  let cfg =
    Executor.config ~initial:[ ("x", 100) ] ~update_locks [ level; level ]
  in
  Executor.run cfg [ cursor_add 30; cursor_add 20 ] ~schedule

(* The contended schedule: both transactions fetch before either writes. *)
let contended = [ 1; 1; 2; 2; 1; 2; 1; 2 ]

let test_without_u_locks_deadlocks () =
  let r = run ~update_locks:false L.Repeatable_read contended in
  Alcotest.(check int) "upgrade deadlock" 1 r.Executor.deadlock_aborts;
  Alcotest.(check bool) "a victim was aborted" true
    (List.exists (fun (_, s) -> s <> Executor.Committed) r.Executor.statuses)

let test_with_u_locks_blocks_instead () =
  let r = run ~update_locks:true L.Repeatable_read contended in
  Alcotest.(check int) "no deadlock" 0 r.Executor.deadlock_aborts;
  Alcotest.(check bool) "both commit" true
    (List.for_all (fun (_, s) -> s = Executor.Committed) r.Executor.statuses);
  Alcotest.(check (option int)) "no lost update either" (Some 150)
    (List.assoc_opt "x" r.Executor.final)

(* Exhaustively: with U locks, no interleaving of the contended pair ever
   deadlocks or loses an update at REPEATABLE READ. *)
let test_u_locks_exhaustive () =
  let programs = [ cursor_add 30; cursor_add 20 ] in
  let sizes = Sim.Interleave.sizes_of_programs programs in
  let bad, total =
    Sim.Interleave.count_merges sizes (fun schedule ->
        let r = run ~update_locks:true L.Repeatable_read schedule in
        r.Executor.deadlock_aborts > 0
        || List.assoc_opt "x" r.Executor.final <> Some 150)
  in
  Alcotest.(check int) "no bad interleaving" 0 bad;
  Alcotest.(check bool) "explored all" true (total = Sim.Interleave.count sizes)

(* U locks still allow plain readers through while the row is marked. *)
let test_u_lock_readers_pass () =
  let reader = P.make [ P.Read "x"; P.Commit ] in
  let cfg =
    Executor.config ~initial:[ ("x", 100) ] ~update_locks:true
      [ L.Repeatable_read; L.Read_committed ]
  in
  let r =
    Executor.run cfg [ cursor_add 30; reader ] ~schedule:[ 1; 1; 2; 2; 1; 1 ]
  in
  (* The reader's S lock is granted under T1's U lock. *)
  Alcotest.(check (option int)) "reader saw the pre-update value" (Some 100)
    (Workload.Scenario.last_read r 2 "x");
  Alcotest.(check int) "reader never blocked" 0 r.Executor.blocked_attempts

let suite =
  [
    Alcotest.test_case "U compatibility matrix" `Quick test_u_lock_compatibility;
    Alcotest.test_case "U upgrade waits for readers" `Quick
      test_u_upgrade_waits_for_readers;
    Alcotest.test_case "without U locks: upgrade deadlock" `Quick
      test_without_u_locks_deadlocks;
    Alcotest.test_case "with U locks: blocking, both commit" `Quick
      test_with_u_locks_blocks_instead;
    Alcotest.test_case "U locks exhaustively deadlock-free" `Quick
      test_u_locks_exhaustive;
    Alcotest.test_case "readers pass under U" `Quick test_u_lock_readers_pass;
  ]
