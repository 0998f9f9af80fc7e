(* Tests for the Multiversion Mixed Method ([BHG]; the paper's §4.2 notes
   Snapshot Isolation "extends the Multiversion Mixed Method, which
   allowed snapshot reads by read-only transactions"): on the locking
   engine, a transaction declared read-only reads the committed snapshot
   as of its begin, takes no locks, and cannot write. *)

module P = Core.Program
module L = Isolation.Level
module Executor = Runtime.Executor
module Predicate = Storage.Predicate
module Scenario = Workload.Scenario

let run ?read_only level programs schedule =
  let cfg =
    Executor.config
      ~initial:[ ("x", 50); ("y", 50) ]
      ?read_only
      (List.map (fun _ -> level) programs)
  in
  Executor.run cfg programs ~schedule

let transfer =
  P.make ~name:"transfer"
    [ P.Read "x"; P.Write ("x", P.read_plus "x" (-40));
      P.Read "y"; P.Write ("y", P.read_plus "y" 40); P.Commit ]

let audit = P.make ~name:"audit" [ P.Read "x"; P.Read "y"; P.Commit ]

(* The H1 interleaving: a locked audit would block or read dirty; a
   read-only audit reads its snapshot, never blocks, and sums to 100. *)
let test_audit_consistent_and_unblocked () =
  let r =
    run ~read_only:[ false; true ] L.Serializable [ transfer; audit ]
      [ 1; 1; 2; 2; 2; 1; 1; 1 ]
  in
  Alcotest.(check int) "audit never blocks" 0 r.Executor.blocked_attempts;
  (match (Scenario.last_read r 2 "x", Scenario.last_read r 2 "y") with
  | Some x, Some y -> Alcotest.(check int) "consistent total" 100 (x + y)
  | _ -> Alcotest.fail "audit reads missing");
  Alcotest.(check bool) "both commit" true
    (List.for_all (fun (_, s) -> s = Executor.Committed) r.Executor.statuses)

(* ...and symmetrically it never blocks the writer. *)
let test_writer_unblocked_by_audit () =
  let r =
    run ~read_only:[ true; false ] L.Serializable [ audit; transfer ]
      [ 1; 2; 2; 2; 2; 2; 1; 1 ]
  in
  Alcotest.(check int) "nothing blocks" 0 r.Executor.blocked_attempts

(* Exhaustive: across every interleaving, a read-only audit of the
   transfer workload always sums to 100 and never blocks, while the
   resulting mixed trace stays one-copy serializable. *)
let test_exhaustive_consistency () =
  let programs = [ transfer; audit ] in
  let sizes = Sim.Interleave.sizes_of_programs programs in
  let bad, total =
    Sim.Interleave.count_merges sizes (fun schedule ->
        let r = run ~read_only:[ false; true ] L.Serializable programs schedule in
        let consistent =
          match (Scenario.last_read r 2 "x", Scenario.last_read r 2 "y") with
          | Some x, Some y -> x + y = 100
          | _ -> false
        in
        not
          (consistent
          && r.Executor.blocked_attempts = 0
          && History.Mv.is_one_copy_serializable r.Executor.history))
  in
  Alcotest.(check int) "no bad interleaving" 0 bad;
  Alcotest.(check bool) "explored all" true (total = Sim.Interleave.count sizes)

(* Writes from a read-only transaction are rejected. *)
let test_read_only_writes_rejected () =
  let db = Core.Db.open_db ~initial:[ ("x", 1) ] () in
  let tx = Core.Db.begin_tx ~read_only:true db ~level:L.Serializable in
  (match Core.Db.read tx "x" with
  | Core.Db.Ok (Some 1) -> ()
  | _ -> Alcotest.fail "read-only read failed");
  Alcotest.(check bool) "write raises" true
    (try
       ignore (Core.Db.write tx "x" 9);
       false
     with Invalid_argument _ -> true)

(* The snapshot is pinned at begin: later commits stay invisible. *)
let test_snapshot_pinned_at_begin () =
  let db = Core.Db.open_db ~initial:[ ("x", 1) ] () in
  let ro = Core.Db.begin_tx ~read_only:true db ~level:L.Serializable in
  let w = Core.Db.begin_tx db ~level:L.Serializable in
  (match Core.Db.write w "x" 2 with Core.Db.Ok () -> () | _ -> Alcotest.fail "write");
  (match Core.Db.commit w with Core.Db.Ok () -> () | _ -> Alcotest.fail "commit");
  (match Core.Db.read ro "x" with
  | Core.Db.Ok (Some v) -> Alcotest.(check int) "still sees 1" 1 v
  | _ -> Alcotest.fail "read");
  (* A read-only transaction begun after the commit sees 2. *)
  let ro2 = Core.Db.begin_tx ~read_only:true db ~level:L.Serializable in
  match Core.Db.read ro2 "x" with
  | Core.Db.Ok (Some v) -> Alcotest.(check int) "fresh snapshot sees 2" 2 v
  | _ -> Alcotest.fail "read"

(* Snapshot scans see committed predicate membership as of begin. *)
let test_snapshot_scans () =
  let emp = Predicate.key_prefix ~name:"Emp" "emp_" in
  let db = Core.Db.open_db ~initial:[ ("emp_a", 1) ] ~predicates:[ emp ] () in
  let ro = Core.Db.begin_tx ~read_only:true db ~level:L.Serializable in
  let w = Core.Db.begin_tx db ~level:L.Serializable in
  (match Core.Db.insert w "emp_b" 1 with Core.Db.Ok () -> () | _ -> Alcotest.fail "insert");
  (match Core.Db.commit w with Core.Db.Ok () -> () | _ -> Alcotest.fail "commit");
  match Core.Db.scan ro emp with
  | Core.Db.Ok rows ->
    Alcotest.(check (list (pair string int)))
      "no phantom in the snapshot" [ ("emp_a", 1) ] rows
  | _ -> Alcotest.fail "scan"

(* Rollbacks leave no trace in the version history: a snapshot taken after
   an abort sees the pre-abort state. *)
let test_aborts_invisible_to_snapshots () =
  let db = Core.Db.open_db ~initial:[ ("x", 1) ] () in
  let w = Core.Db.begin_tx db ~level:L.Serializable in
  (match Core.Db.write w "x" 99 with Core.Db.Ok () -> () | _ -> Alcotest.fail "write");
  (match Core.Db.abort w with Core.Db.Ok () -> () | _ -> Alcotest.fail "abort");
  let ro = Core.Db.begin_tx ~read_only:true db ~level:L.Serializable in
  match Core.Db.read ro "x" with
  | Core.Db.Ok (Some v) -> Alcotest.(check int) "aborted write invisible" 1 v
  | _ -> Alcotest.fail "read"

let suite =
  [
    Alcotest.test_case "audit: consistent and unblocked" `Quick
      test_audit_consistent_and_unblocked;
    Alcotest.test_case "writer unblocked by audit" `Quick
      test_writer_unblocked_by_audit;
    Alcotest.test_case "exhaustive consistency" `Quick
      test_exhaustive_consistency;
    Alcotest.test_case "read-only writes rejected" `Quick
      test_read_only_writes_rejected;
    Alcotest.test_case "snapshot pinned at begin" `Quick
      test_snapshot_pinned_at_begin;
    Alcotest.test_case "snapshot scans" `Quick test_snapshot_scans;
    Alcotest.test_case "aborts invisible to snapshots" `Quick
      test_aborts_invisible_to_snapshots;
  ]
