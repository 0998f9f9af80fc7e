(* Tests for the strict timestamp-ordering scheduler: lock-free
   serializability with Too_late aborts instead of blocking, strict reads
   behind uncommitted writers, no deadlocks ever, and phantom safety via
   the membership guard. *)

module P = Core.Program
module L = Isolation.Level
module Executor = Runtime.Executor
module Predicate = Storage.Predicate

let run ?(initial = [ ("x", 0); ("y", 0) ]) ?(predicates = []) programs schedule =
  let cfg =
    Executor.config ~initial ~predicates
      (List.map (fun _ -> L.Timestamp_ordering) programs)
  in
  Executor.run cfg programs ~schedule

let test_late_write_aborts () =
  (* T1 (older) writes x after T2 (younger) read it: T1 is too late. *)
  let t1 = P.make [ P.Read "y"; P.Write ("x", P.const 1); P.Commit ] in
  let t2 = P.make [ P.Read "x"; P.Commit ] in
  let r = run [ t1; t2 ] [ 1; 2; 2; 1; 1 ] in
  Alcotest.(check Support.exec_status) "T1 aborted too-late"
    (Executor.Aborted Core.Engine.Too_late)
    (List.assoc 1 r.Executor.statuses);
  Alcotest.(check Support.exec_status) "T2 committed" Executor.Committed
    (List.assoc 2 r.Executor.statuses)

let test_timestamp_order_respected () =
  (* Accesses in timestamp order sail through without blocking. *)
  let t1 = P.make [ P.Read "x"; P.Write ("x", P.read_plus "x" 1); P.Commit ] in
  let t2 = P.make [ P.Read "x"; P.Write ("x", P.read_plus "x" 1); P.Commit ] in
  let r = run [ t1; t2 ] [ 1; 1; 1; 2; 2; 2 ] in
  Alcotest.(check bool) "both commit" true
    (List.for_all (fun (_, s) -> s = Executor.Committed) r.Executor.statuses);
  Alcotest.(check (option int)) "both increments applied" (Some 2)
    (List.assoc_opt "x" r.Executor.final)

let test_strict_reads_wait () =
  (* T2 must not read T1's uncommitted write; it waits and then sees the
     committed value. *)
  let t1 = P.make [ P.Write ("x", P.const 7); P.Commit ] in
  let t2 = P.make [ P.Read "x"; P.Commit ] in
  let r = run [ t1; t2 ] [ 1; 2; 2; 1; 1; 2 ] in
  Alcotest.(check bool) "the read waited" true (r.Executor.blocked_attempts > 0);
  Alcotest.(check (option (option int))) "read the committed value"
    (Some (Some 7))
    (Some (Workload.Scenario.last_read r 2 "x"));
  Alcotest.(check bool) "no dirty read in the trace" false
    (Phenomena.Detect.occurs Phenomena.Phenomenon.P1 r.Executor.history)

let test_aborted_write_rolled_back () =
  let t1 = P.make [ P.Write ("x", P.const 9); P.Abort ] in
  let r = run [ t1 ] [ 1; 1 ] in
  Alcotest.(check (option int)) "before-image restored" (Some 0)
    (List.assoc_opt "x" r.Executor.final)

let test_phantom_guard () =
  let emp = Predicate.key_prefix ~name:"Emp" "emp_" in
  let scanner = P.make [ P.Scan emp; P.Scan emp; P.Commit ] in
  let inserter = P.make [ P.Insert ("emp_new", P.const 1); P.Commit ] in
  (* Older scanner, younger inserter, insert interleaved between the two
     scans: T/O aborts somebody rather than show a phantom. *)
  let r =
    run ~initial:[ ("emp_a", 1) ] ~predicates:[ emp ] [ scanner; inserter ]
      [ 1; 2; 2; 1; 1 ]
  in
  Alcotest.(check bool) "no phantom" false
    (Workload.Scenario.unrepeatable_scan r 1 "Emp");
  (* ...and the insert (younger, after the scan) is the one that survives
     or aborts too-late depending on order; either way serializable: *)
  Alcotest.(check bool) "serializable" true
    (History.Conflict.is_serializable r.Executor.history)

(* Property: timestamp ordering is serializable and deadlock-free on
   random workloads, and none of the actual anomalies occur. Note the
   deliberate contrast with two-phase locking: T/O does NOT forbid the
   broad phenomena (a younger writer may overwrite what an older active
   reader saw — the P2 pattern — because the reader is doomed to abort or
   to serialize before the writer anyway). Forbidding the broad phenomena
   is the paper's characterization of LOCKING; it is sufficient for
   serializability, not necessary. *)
let prop_to_serializable =
  Support.qtest "T/O histories are serializable and deadlock-free" ~count:300
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let programs =
        Workload.Generators.random_programs ~rand ~keys:[ "x"; "y"; "z" ]
          ~txns:3 ~ops:4 ()
      in
      let schedule = Workload.Generators.random_schedule ~rand programs in
      let r =
        run ~initial:[ ("x", 1); ("y", 2); ("z", 3) ]
          ~predicates:[ Predicate.all ] programs schedule
      in
      let module Ph = Phenomena.Phenomenon in
      r.Executor.deadlock_aborts = 0
      && History.Conflict.is_serializable r.Executor.history
      && List.for_all
           (fun p -> not (Phenomena.Detect.occurs p r.Executor.history))
           [ Ph.A1; Ph.A2; Ph.A3; Ph.P4; Ph.P4C; Ph.A5A; Ph.A5B ])

(* The serialization order is the timestamp order: committed transactions
   topologically sort by their begin order. *)
let prop_to_serializes_in_timestamp_order =
  Support.qtest "T/O serializes in timestamp order" ~count:300
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let programs =
        Workload.Generators.random_programs ~allow_abort:false ~rand
          ~keys:[ "x"; "y" ] ~txns:3 ~ops:3 ()
      in
      let schedule = Workload.Generators.random_schedule ~rand programs in
      let r =
        run ~initial:[ ("x", 1); ("y", 2) ] ~predicates:[ Predicate.all ]
          programs schedule
      in
      (* Begin order = order of first attempt in the schedule (the
         executor begins transactions lazily). Committed transactions
         must admit that order as a serial order. *)
      let begin_order =
        List.fold_left
          (fun acc tid -> if List.mem tid acc then acc else tid :: acc)
          [] schedule
        |> List.rev
      in
      let committed = Executor.committed_txns r in
      let order = List.filter (fun t -> List.mem t committed) begin_order in
      History.Conflict.equivalent r.Executor.history
        (History.Conflict.serial_history r.Executor.history order))

let suite =
  [
    Alcotest.test_case "late write aborts" `Quick test_late_write_aborts;
    Alcotest.test_case "timestamp order respected" `Quick
      test_timestamp_order_respected;
    Alcotest.test_case "strict reads wait" `Quick test_strict_reads_wait;
    Alcotest.test_case "aborts roll back" `Quick test_aborted_write_rolled_back;
    Alcotest.test_case "phantom guard" `Quick test_phantom_guard;
    prop_to_serializable;
    prop_to_serializes_in_timestamp_order;
  ]
