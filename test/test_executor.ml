(* Tests for the deterministic executor: schedules, draining, serial
   runs, status reporting and input validation. *)

module P = Core.Program
module L = Isolation.Level
module Executor = Runtime.Executor

let t_inc k = P.make [ P.Read k; P.Write (k, P.read_plus k 1); P.Commit ]

let test_serial_run () =
  let cfg = Executor.config ~initial:[ ("x", 0) ] [ L.Serializable; L.Serializable ] in
  let r = Executor.run_serial cfg [ t_inc "x"; t_inc "x" ] in
  Alcotest.(check (option int)) "both increments applied" (Some 2)
    (List.assoc_opt "x" r.Executor.final);
  Alcotest.(check int) "no blocking in serial execution" 0
    r.Executor.blocked_attempts;
  Alcotest.(check bool) "serializable" true
    (History.Conflict.is_serializable r.Executor.history)

let test_empty_schedule_drains () =
  let cfg = Executor.config ~initial:[ ("x", 0) ] [ L.Serializable ] in
  let r = Executor.run cfg [ t_inc "x" ] ~schedule:[] in
  Alcotest.(check Support.exec_status) "completed via drain"
    Executor.Committed
    (List.assoc 1 r.Executor.statuses)

let test_over_long_schedule_harmless () =
  let cfg = Executor.config ~initial:[ ("x", 0) ] [ L.Serializable ] in
  let r = Executor.run cfg [ t_inc "x" ] ~schedule:[ 1; 1; 1; 1; 1; 1; 1; 1; 1 ] in
  Alcotest.(check (option int)) "executed once" (Some 1)
    (List.assoc_opt "x" r.Executor.final)

let test_unknown_txn_rejected () =
  let cfg = Executor.config [ L.Serializable ] in
  Alcotest.check_raises "schedule mentions unknown transaction"
    (Invalid_argument "Executor.run: schedule names unknown transaction 7")
    (fun () -> ignore (Executor.run cfg [ t_inc "x" ] ~schedule:[ 7 ]))

let test_level_count_mismatch_rejected () =
  let cfg = Executor.config [ L.Serializable ] in
  Alcotest.check_raises "levels must match programs"
    (Invalid_argument "Executor.run: one isolation level per program required")
    (fun () -> ignore (Executor.run cfg [ t_inc "x"; t_inc "y" ] ~schedule:[]))

let test_mixed_families_rejected () =
  let cfg = Executor.config [ L.Serializable; L.Snapshot ] in
  Alcotest.(check bool) "locking + multiversion rejected" true
    (try
       ignore (Executor.run cfg [ t_inc "x"; t_inc "y" ] ~schedule:[]);
       false
     with Invalid_argument _ -> true)

let test_user_abort_status () =
  let t = P.make [ P.Write ("x", P.const 5); P.Abort ] in
  let cfg = Executor.config ~initial:[ ("x", 0) ] [ L.Serializable ] in
  let r = Executor.run cfg [ t ] ~schedule:[ 1; 1 ] in
  Alcotest.(check Support.exec_status) "user abort reported"
    (Executor.Aborted Core.Engine.User_abort)
    (List.assoc 1 r.Executor.statuses);
  Alcotest.(check (option int)) "rolled back" (Some 0)
    (List.assoc_opt "x" r.Executor.final)

let test_committed_txns_helper () =
  let t_abort = P.make [ P.Read "x"; P.Abort ] in
  let cfg =
    Executor.config ~initial:[ ("x", 0) ] [ L.Serializable; L.Serializable ]
  in
  let r = Executor.run_serial cfg [ t_inc "x"; t_abort ] in
  Alcotest.(check (list int)) "only T1 committed" [ 1 ]
    (Executor.committed_txns r)

let test_blocked_counts () =
  let t1 = P.make [ P.Write ("x", P.const 1); P.Commit ] in
  let t2 = P.make [ P.Write ("x", P.const 2); P.Commit ] in
  let cfg =
    Executor.config ~initial:[ ("x", 0) ] [ L.Serializable; L.Serializable ]
  in
  let r = Executor.run cfg [ t1; t2 ] ~schedule:[ 1; 2; 2; 2; 1; 1 ] in
  Alcotest.(check bool) "contention counted" true (r.Executor.blocked_attempts > 0);
  Alcotest.(check (option int)) "last committer's value stands" (Some 2)
    (List.assoc_opt "x" r.Executor.final)

(* Every interleaving of the three-transaction increment workload ends
   with all transactions committed and the counter at 3 — 2PL never loses
   updates, whatever the schedule. *)
let test_all_interleavings_of_increments () =
  let programs = [ t_inc "x"; t_inc "x"; t_inc "x" ] in
  let cfg =
    Executor.config ~initial:[ ("x", 0) ]
      [ L.Serializable; L.Serializable; L.Serializable ]
  in
  let sizes = Sim.Interleave.sizes_of_programs programs in
  let bad, total =
    Sim.Interleave.count_merges sizes (fun schedule ->
        let r = Executor.run cfg programs ~schedule in
        List.assoc_opt "x" r.Executor.final <> Some 3
        && Executor.committed_txns r = [ 1; 2; 3 ])
  in
  Alcotest.(check int) "no schedule loses an increment with all commits" 0 bad;
  Alcotest.(check bool) "explored many schedules" true (total > 1000)

let suite =
  [
    Alcotest.test_case "serial run" `Quick test_serial_run;
    Alcotest.test_case "empty schedule drains" `Quick test_empty_schedule_drains;
    Alcotest.test_case "over-long schedule harmless" `Quick
      test_over_long_schedule_harmless;
    Alcotest.test_case "unknown transaction rejected" `Quick
      test_unknown_txn_rejected;
    Alcotest.test_case "level count mismatch rejected" `Quick
      test_level_count_mismatch_rejected;
    Alcotest.test_case "mixed families rejected" `Quick
      test_mixed_families_rejected;
    Alcotest.test_case "user abort status" `Quick test_user_abort_status;
    Alcotest.test_case "committed_txns" `Quick test_committed_txns_helper;
    Alcotest.test_case "blocked attempts counted" `Quick test_blocked_counts;
    Alcotest.test_case "all increment interleavings conserve the counter"
      `Slow test_all_interleavings_of_increments;
  ]
