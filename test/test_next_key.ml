(* Tests for next-key (gap) locking — the ARIES/KVL-style alternative to
   the paper's predicate locks. Same phantom guarantees on range
   predicates, different precision: next-key locking can block writes
   outside the predicate (false conflicts on shared gaps), while
   predicate locks are exact. *)

module P = Core.Program
module L = Isolation.Level
module Ph = Phenomena.Phenomenon
module Executor = Runtime.Executor
module Predicate = Storage.Predicate

let run_nk ?(initial = []) ?(predicates = []) level programs schedule =
  let cfg =
    Executor.config ~initial ~predicates ~next_key_locking:true
      (List.map (fun _ -> level) programs)
  in
  Executor.run cfg programs ~schedule

let emp = Predicate.key_prefix ~name:"Emp" "emp_"

let test_prefix_successor () =
  Alcotest.(check (option string)) "emp_ bumps" (Some "emp`")
    (Predicate.prefix_successor "emp_");
  Alcotest.(check (option string)) "a bumps" (Some "b")
    (Predicate.prefix_successor "a");
  Alcotest.(check (option string)) "empty is unbounded" None
    (Predicate.prefix_successor "");
  Alcotest.(check (option string)) "trailing 0xff carries" (Some "b")
    (Predicate.prefix_successor "a\xff")

let test_range_bounds () =
  Alcotest.(check (option (pair string (option string))))
    "prefix range"
    (Some ("emp_", Some "emp`"))
    (Predicate.range_bounds emp);
  Alcotest.(check (option (pair string (option string))))
    "item range"
    (Some ("x", Some "x\x00"))
    (Predicate.range_bounds (Predicate.item "x"));
  Alcotest.(check (option (pair string (option string))))
    "value predicates have no range" None
    (Predicate.range_bounds (Predicate.value_range ~name:"V" ~lo:0 ~hi:9))

let test_next_key_geq () =
  let s = Storage.Store.of_list [ ("b", 1); ("d", 2) ] in
  Alcotest.(check (option string)) "geq a" (Some "b")
    (Storage.Store.next_key_geq s "a");
  Alcotest.(check (option string)) "geq b" (Some "b")
    (Storage.Store.next_key_geq s "b");
  Alcotest.(check (option string)) "geq c" (Some "d")
    (Storage.Store.next_key_geq s "c");
  Alcotest.(check (option string)) "geq e" None
    (Storage.Store.next_key_geq s "e")

(* Phantom insert into a scanned range blocks under next-key SERIALIZABLE,
   exactly as it does under predicate locks. *)
let test_phantom_insert_blocks () =
  let scanner = P.make [ P.Scan emp; P.Scan emp; P.Commit ] in
  let inserter = P.make [ P.Insert ("emp_c", P.const 1); P.Commit ] in
  let r =
    run_nk
      ~initial:[ ("emp_a", 1); ("emp_b", 1) ]
      ~predicates:[ emp ] L.Serializable [ scanner; inserter ]
      [ 1; 2; 2; 1; 1 ]
  in
  Alcotest.(check bool) "insert waited" true (r.Executor.blocked_attempts > 0);
  Alcotest.(check bool) "no phantom" false
    (Phenomena.Detect.occurs Ph.A3 r.Executor.history)

(* A write beyond the guarded gap proceeds without blocking. *)
let test_disjoint_insert_proceeds () =
  let scanner = P.make [ P.Scan emp; P.Scan emp; P.Commit ] in
  (* zzz_sentinel bounds the scan's gap guard, so inserting after it is
     outside every locked gap. *)
  let inserter = P.make [ P.Insert ("zzz_x", P.const 1); P.Commit ] in
  let r =
    run_nk
      ~initial:[ ("emp_a", 1); ("zzz_sentinel", 0) ]
      ~predicates:[ emp ] L.Serializable [ scanner; inserter ]
      [ 1; 2; 2; 1; 1 ]
  in
  Alcotest.(check int) "no blocking" 0 r.Executor.blocked_attempts

(* The imprecision: an insert below the range whose successor is a locked
   row is blocked by next-key locking but sails through predicate locks. *)
let test_false_conflict_vs_predicate_locks () =
  let scanner = P.make [ P.Scan emp; P.Scan emp; P.Commit ] in
  let inserter = P.make [ P.Insert ("aaa", P.const 1); P.Commit ] in
  let initial = [ ("emp_a", 1) ] in
  let sched = [ 1; 2; 2; 1; 1 ] in
  let nk =
    run_nk ~initial ~predicates:[ emp ] L.Serializable [ scanner; inserter ]
      sched
  in
  Alcotest.(check bool) "next-key blocks the unrelated insert" true
    (nk.Executor.blocked_attempts > 0);
  let cfg =
    Executor.config ~initial ~predicates:[ emp ]
      [ L.Serializable; L.Serializable ]
  in
  let pl = Executor.run cfg [ scanner; inserter ] ~schedule:sched in
  Alcotest.(check int) "predicate locks admit it" 0 pl.Executor.blocked_attempts

(* Deletes merge a gap, so they also conflict with a covering scan. *)
let test_phantom_delete_blocks () =
  let scanner = P.make [ P.Scan emp; P.Scan emp; P.Commit ] in
  let deleter = P.make [ P.Delete "emp_a"; P.Commit ] in
  let r =
    run_nk
      ~initial:[ ("emp_a", 1); ("emp_b", 1) ]
      ~predicates:[ emp ] L.Serializable [ scanner; deleter ]
      [ 1; 2; 2; 1; 1 ]
  in
  Alcotest.(check bool) "delete waited" true (r.Executor.blocked_attempts > 0);
  Alcotest.(check bool) "scans agree" false
    (Workload.Scenario.unrepeatable_scan r 1 "Emp")

(* Plain updates (no presence change) of a scanned row still conflict via
   the row lock itself. *)
let test_update_of_scanned_row_blocks () =
  let scanner = P.make [ P.Scan emp; P.Scan emp; P.Commit ] in
  let updater = P.make [ P.Write ("emp_a", P.const 9); P.Commit ] in
  let r =
    run_nk
      ~initial:[ ("emp_a", 1) ]
      ~predicates:[ emp ] L.Serializable [ scanner; updater ]
      [ 1; 2; 2; 1; 1 ]
  in
  Alcotest.(check bool) "update waited" true (r.Executor.blocked_attempts > 0);
  Alcotest.(check bool) "no fuzzy scan" false
    (Workload.Scenario.unrepeatable_scan r 1 "Emp")

(* The classifier's P3 cells are identical under both phantom guards for
   range predicates: Not Possible at SERIALIZABLE, Possible at
   REPEATABLE READ (whose next-key locks are short-lived like its
   predicate locks would be... in Table 2 RR takes only short predicate
   locks, and the next-key guard inherits that duration). *)
let test_p3_classification_under_next_key () =
  List.iter
    (fun (level, expected) ->
      let c = Sim.Classify.cell ~next_key_locking:true level Ph.P3 in
      Alcotest.(check Support.possibility)
        (Fmt.str "P3 at %s under next-key locking" (L.name level))
        expected c.Sim.Classify.verdict)
    [
      (L.Serializable, Isolation.Spec.Not_possible);
      (L.Repeatable_read, Isolation.Spec.Possible);
      (L.Read_committed, Isolation.Spec.Possible);
    ]

(* The full Table 3 is reproduced under the next-key guard as well. *)
let test_table3_under_next_key () =
  let diffs =
    Sim.Classify.diff_with_spec (Sim.Classify.table3 ~next_key_locking:true ())
  in
  if diffs <> [] then
    Alcotest.failf "next-key Table 3 diverges:@.%a"
      Fmt.(list ~sep:sp Sim.Classify.pp_mismatch)
      diffs

let suite =
  [
    Alcotest.test_case "prefix successor" `Quick test_prefix_successor;
    Alcotest.test_case "range bounds" `Quick test_range_bounds;
    Alcotest.test_case "next_key_geq" `Quick test_next_key_geq;
    Alcotest.test_case "phantom insert blocks" `Quick test_phantom_insert_blocks;
    Alcotest.test_case "disjoint insert proceeds" `Quick
      test_disjoint_insert_proceeds;
    Alcotest.test_case "false conflict vs predicate locks" `Quick
      test_false_conflict_vs_predicate_locks;
    Alcotest.test_case "phantom delete blocks" `Quick test_phantom_delete_blocks;
    Alcotest.test_case "update of scanned row blocks" `Quick
      test_update_of_scanned_row_blocks;
    Alcotest.test_case "P3 classification under next-key" `Slow
      test_p3_classification_under_next_key;
    Alcotest.test_case "Table 3 under next-key" `Slow
      test_table3_under_next_key;
  ]
