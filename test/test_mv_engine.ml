(* Behavioral tests for the multiversion engine: Snapshot Isolation's
   read and commit rules, First-Updater-Wins, Oracle Read Consistency's
   per-statement snapshots and first-writer-wins locks, and time travel. *)

module P = Core.Program
module L = Isolation.Level
module Ph = Phenomena.Phenomenon
module Executor = Runtime.Executor
module Predicate = Storage.Predicate

let run = Support.run

let test_si_reads_snapshot () =
  (* T2 reads x twice around T1's committed update: both reads see the
     snapshot value. *)
  let t1 = P.make [ P.Write ("x", P.const 9); P.Commit ] in
  let t2 = P.make [ P.Read "x"; P.Read "x"; P.Commit ] in
  let r = run ~initial:[ ("x", 1) ] L.Snapshot [ t1; t2 ] [ 2; 1; 1; 2; 2 ] in
  Alcotest.(check bool) "reads are repeatable" false
    (Workload.Scenario.unrepeatable_read r 2 "x");
  Alcotest.(check int) "reads never block" 0 r.Executor.blocked_attempts

let test_si_sees_own_writes () =
  let t = P.make [ P.Write ("x", P.const 7); P.Read "x"; P.Commit ] in
  let r = run ~initial:[ ("x", 1) ] L.Snapshot [ t ] [ 1; 1; 1 ] in
  Alcotest.(check (option (option int))) "own write visible"
    (Some (Some 7))
    (Workload.Scenario.last_read r 1 "x" |> Option.some)

let test_si_fcw_aborts_second_committer () =
  let u amount = P.make [ P.Read "x"; P.Write ("x", P.read_plus "x" amount); P.Commit ] in
  let r =
    run ~initial:[ ("x", 100) ] L.Snapshot [ u 30; u 20 ] [ 1; 2; 2; 2; 1; 1 ]
  in
  Alcotest.(check Support.exec_status) "T2 commits first" Executor.Committed
    (List.assoc 2 r.Executor.statuses);
  Alcotest.(check Support.exec_status) "T1 aborted by FCW"
    (Executor.Aborted Core.Engine.First_committer_wins)
    (List.assoc 1 r.Executor.statuses);
  Alcotest.(check (option int)) "no lost update" (Some 120)
    (List.assoc_opt "x" r.Executor.final)

let test_si_disjoint_writes_both_commit () =
  let t1 = P.make [ P.Write ("x", P.const 1); P.Commit ] in
  let t2 = P.make [ P.Write ("y", P.const 2); P.Commit ] in
  let r = run ~initial:[ ("x", 0); ("y", 0) ] L.Snapshot [ t1; t2 ] [ 1; 2; 1; 2 ] in
  Alcotest.(check bool) "both commit" true
    (List.for_all (fun (_, s) -> s = Executor.Committed) r.Executor.statuses)

let test_si_write_skew_materializes () =
  let skew from_ =
    P.make
      [ P.Read "x"; P.Read "y";
        P.Write
          ( from_,
            fun env ->
              if P.value_of env "x" + P.value_of env "y" >= 90 then
                P.value_of env from_ - 90
              else P.value_of env from_ );
        P.Commit ]
  in
  let r =
    run ~initial:[ ("x", 50); ("y", 50) ] L.Snapshot [ skew "y"; skew "x" ]
      [ 1; 1; 2; 2; 1; 2; 1; 2 ]
  in
  Alcotest.(check bool) "both commit" true
    (List.for_all (fun (_, s) -> s = Executor.Committed) r.Executor.statuses);
  Alcotest.(check bool) "constraint x+y >= 0 broken" true
    (List.assoc "x" r.Executor.final + List.assoc "y" r.Executor.final < 0);
  Alcotest.(check bool) "A5B in the trace" true
    (Phenomena.Detect.occurs Ph.A5B r.Executor.history)

let test_fuw_aborts_at_write_time () =
  let u amount = P.make [ P.Read "x"; P.Write ("x", P.read_plus "x" amount); P.Commit ] in
  (* T2 updates and commits entirely inside T1's lifetime; T1 then tries
     to write and dies immediately (not at commit). *)
  let r =
    run ~initial:[ ("x", 100) ] ~first_updater_wins:true L.Snapshot
      [ u 30; u 20 ] [ 1; 2; 2; 2; 1; 1 ]
  in
  Alcotest.(check Support.exec_status) "T1 aborted by FUW"
    (Executor.Aborted Core.Engine.First_updater_wins)
    (List.assoc 1 r.Executor.statuses);
  Alcotest.(check (option int)) "T2's update stands" (Some 120)
    (List.assoc_opt "x" r.Executor.final)

let test_fuw_blocks_behind_active_writer () =
  let t1 = P.make [ P.Write ("x", P.const 1); P.Commit ] in
  let t2 = P.make [ P.Write ("x", P.const 2); P.Commit ] in
  let r =
    run ~initial:[ ("x", 0) ] ~first_updater_wins:true L.Snapshot [ t1; t2 ]
      [ 1; 2; 2; 1; 2 ]
  in
  Alcotest.(check bool) "the second writer waited" true
    (r.Executor.blocked_attempts > 0);
  (* After T1 commits, T2's retried write sees the conflict and aborts. *)
  Alcotest.(check Support.exec_status) "T2 aborted by FUW"
    (Executor.Aborted Core.Engine.First_updater_wins)
    (List.assoc 2 r.Executor.statuses)

let test_oracle_statement_level_reads () =
  (* Oracle Read Consistency: the second read (a new statement) sees the
     committed update — P2 observable, unlike SI. *)
  let t1 = P.make [ P.Read "x"; P.Read "x"; P.Commit ] in
  let t2 = P.make [ P.Write ("x", P.const 9); P.Commit ] in
  let sched = [ 1; 2; 2; 1; 1 ] in
  let orc = run ~initial:[ ("x", 1) ] L.Oracle_read_consistency [ t1; t2 ] sched in
  Alcotest.(check bool) "fuzzy read under Read Consistency" true
    (Workload.Scenario.unrepeatable_read orc 1 "x");
  let si = run ~initial:[ ("x", 1) ] L.Snapshot [ t1; t2 ] sched in
  Alcotest.(check bool) "repeatable under SI" false
    (Workload.Scenario.unrepeatable_read si 1 "x")

let test_oracle_first_writer_wins_allows_lost_update () =
  let u amount = P.make [ P.Read "x"; P.Write ("x", P.read_plus "x" amount); P.Commit ] in
  let r =
    run ~initial:[ ("x", 100) ] L.Oracle_read_consistency [ u 30; u 20 ]
      [ 1; 2; 2; 2; 1; 1 ]
  in
  Alcotest.(check bool) "both commit" true
    (List.for_all (fun (_, s) -> s = Executor.Committed) r.Executor.statuses);
  Alcotest.(check (option int)) "T2's update is lost (P4)" (Some 130)
    (List.assoc_opt "x" r.Executor.final)

let test_oracle_for_update_cursor_prevents_p4c () =
  let t1 =
    P.make
      [
        P.Open_cursor { cursor = "c"; pred = Predicate.item "x"; for_update = true };
        P.Fetch "c";
        P.Cursor_write ("c", P.read_plus "x" 30);
        P.Commit;
      ]
  in
  let t2 = P.make [ P.Read "x"; P.Write ("x", P.read_plus "x" 20); P.Commit ] in
  let r =
    run ~initial:[ ("x", 100) ] L.Oracle_read_consistency [ t1; t2 ]
      [ 1; 1; 2; 2; 1; 1; 2 ]
  in
  Alcotest.(check bool) "no P4C" false
    (Phenomena.Detect.occurs Ph.P4C r.Executor.history)

let test_si_no_phantom_on_rescan () =
  let emp = Predicate.key_prefix ~name:"Emp" "emp_" in
  let scanner = P.make [ P.Scan emp; P.Scan emp; P.Commit ] in
  let inserter = P.make [ P.Insert ("emp_new", P.const 1); P.Commit ] in
  let r =
    run ~initial:[ ("emp_a", 1) ] ~predicates:[ emp ] L.Snapshot
      [ scanner; inserter ] [ 1; 2; 2; 1; 1 ]
  in
  Alcotest.(check bool) "scans agree under SI" false
    (Workload.Scenario.unrepeatable_scan r 1 "Emp")

let test_si_insert_visible_to_own_scan () =
  let emp = Predicate.key_prefix ~name:"Emp" "emp_" in
  let t = P.make [ P.Insert ("emp_new", P.const 1); P.Scan emp; P.Commit ] in
  let r = run ~initial:[ ("emp_a", 1) ] ~predicates:[ emp ] L.Snapshot [ t ] [ 1; 1; 1 ] in
  match Workload.Scenario.scans_of r 1 "Emp" with
  | [ rows ] ->
    Alcotest.(check (list (pair string int)))
      "own insert visible" [ ("emp_a", 1); ("emp_new", 1) ] rows
  | _ -> Alcotest.fail "expected exactly one scan"

let test_si_delete_installs_tombstone () =
  let t1 = P.make [ P.Delete "x"; P.Commit ] in
  let t2 = P.make [ P.Read "x"; P.Commit ] in
  (* T2 starts after T1 commits: sees the deletion. *)
  let r = run ~initial:[ ("x", 5) ] L.Snapshot [ t1; t2 ] [ 1; 1; 2; 2 ] in
  Alcotest.(check (option (option int))) "read sees absence" (Some None)
    (Some (Workload.Scenario.last_read r 2 "x"));
  Alcotest.(check (list (pair string int))) "final state empty" []
    r.Executor.final

(* Serializable SI (the extension level): commit-time read validation
   kills write skew, read skew and the job-task phantom while keeping
   SI's never-blocking reads. *)
let test_ssi_prevents_write_skew () =
  let skew from_ =
    P.make
      [ P.Read "x"; P.Read "y";
        P.Write
          ( from_,
            fun env ->
              if P.value_of env "x" + P.value_of env "y" >= 90 then
                P.value_of env from_ - 90
              else P.value_of env from_ );
        P.Commit ]
  in
  let r =
    run ~initial:[ ("x", 50); ("y", 50) ] L.Serializable_snapshot
      [ skew "y"; skew "x" ] [ 1; 1; 2; 2; 1; 2; 1; 2 ]
  in
  Alcotest.(check Support.exec_status) "second committer fails validation"
    (Executor.Aborted Core.Engine.Serialization_failure)
    (List.assoc 2 r.Executor.statuses);
  Alcotest.(check bool) "constraint preserved" true
    (List.assoc "x" r.Executor.final + List.assoc "y" r.Executor.final >= 0);
  Alcotest.(check int) "reads still never block" 0 r.Executor.blocked_attempts

let test_ssi_prevents_predicate_phantom () =
  let tasks = Predicate.key_prefix ~name:"Tasks" "task_" in
  let add key =
    P.make
      [ P.Scan tasks;
        P.Insert (key, fun env -> if P.scan_sum env "Tasks" <= 7 then 1 else 0);
        P.Commit ]
  in
  let r =
    run
      ~initial:[ ("task_a", 3); ("task_b", 4) ]
      ~predicates:[ tasks ] L.Serializable_snapshot
      [ add "task_x"; add "task_y" ] [ 1; 2; 1; 2; 1; 2 ]
  in
  Alcotest.(check Support.exec_status) "phantom insert fails validation"
    (Executor.Aborted Core.Engine.Serialization_failure)
    (List.assoc 2 r.Executor.statuses);
  let total =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k >= 5 && String.sub k 0 5 = "task_" then acc + v
        else acc)
      0 r.Executor.final
  in
  Alcotest.(check int) "hours constraint holds" 8 total

let test_ssi_read_only_never_aborts () =
  (* A pure reader concurrent with a writer that commits first: the reader
     reads its snapshot and must still fail validation only if it commits
     AFTER a conflicting write... which it does here; the point of SSI vs
     plain serializability checks is precision, so verify the abort is
     exactly when required: reader finishing before the writer commits is
     fine. *)
  let reader = P.make [ P.Read "x"; P.Read "y"; P.Commit ] in
  let writer = P.make [ P.Write ("x", P.const 9); P.Commit ] in
  (* Reader commits before the writer: no conflict. *)
  let r1 =
    run ~initial:[ ("x", 1); ("y", 2) ] L.Serializable_snapshot
      [ reader; writer ] [ 1; 2; 1; 1; 2 ]
  in
  Alcotest.(check bool) "reader first: both commit" true
    (List.for_all (fun (_, s) -> s = Executor.Committed) r1.Executor.statuses);
  (* Writer commits inside the reader's window: the reader's validation
     fails (conservative SSI aborts on the rw-antidependency). *)
  let r2 =
    run ~initial:[ ("x", 1); ("y", 2) ] L.Serializable_snapshot
      [ reader; writer ] [ 1; 2; 2; 1; 1 ]
  in
  Alcotest.(check Support.exec_status) "reader aborted after concurrent commit"
    (Executor.Aborted Core.Engine.Serialization_failure)
    (List.assoc 1 r2.Executor.statuses)

(* Only SERIALIZABLE SI keeps a read set, and it must keep all of it: a
   read of [x] followed by 255 more reads still fails validation when a
   concurrent writer of [x] commits first. The same schedule at plain
   SNAPSHOT, which keeps no read set, commits. *)
let test_ssi_validates_early_read () =
  let others = List.init 255 (Printf.sprintf "k%03d") in
  let initial = ("x", 1) :: List.map (fun k -> (k, 0)) others in
  let audit =
    P.make ((P.Read "x" :: List.map (fun k -> P.Read k) others) @ [ P.Commit ])
  in
  let writer = P.make [ P.Write ("x", P.const 9); P.Commit ] in
  let schedule = (1 :: 2 :: 2 :: List.map (fun _ -> 1) others) @ [ 1 ] in
  let r = run ~initial L.Serializable_snapshot [ audit; writer ] schedule in
  Alcotest.(check Support.exec_status) "writer commits" Executor.Committed
    (List.assoc 2 r.Executor.statuses);
  Alcotest.(check Support.exec_status) "early read still validated"
    (Executor.Aborted Core.Engine.Serialization_failure)
    (List.assoc 1 r.Executor.statuses);
  let si = run ~initial L.Snapshot [ audit; writer ] schedule in
  Alcotest.(check bool) "SNAPSHOT: both commit" true
    (List.for_all (fun (_, s) -> s = Executor.Committed) si.Executor.statuses)

(* Time travel (§4.2): a read-only transaction with an old Start-Timestamp
   sees the historical database and never blocks. *)
let test_time_travel () =
  let db =
    Core.Db.open_db ~initial:[ ("x", 1) ] ~multiversion:true ()
  in
  let w = Core.Db.begin_tx db ~level:L.Snapshot in
  assert (Core.Db.write w "x" 2 = Core.Db.Ok ());
  assert (Core.Db.commit w = Core.Db.Ok ());
  let w2 = Core.Db.begin_tx db ~level:L.Snapshot in
  assert (Core.Db.write w2 "x" 3 = Core.Db.Ok ());
  assert (Core.Db.commit w2 = Core.Db.Ok ());
  let historical = Core.Db.begin_tx_at db ~level:L.Snapshot ~start_ts:1 in
  (match Core.Db.read historical "x" with
  | Core.Db.Ok (Some v) -> Alcotest.(check int) "sees x as of ts 1" 2 v
  | _ -> Alcotest.fail "historical read failed");
  let ancient = Core.Db.begin_tx_at db ~level:L.Snapshot ~start_ts:0 in
  match Core.Db.read ancient "x" with
  | Core.Db.Ok (Some v) -> Alcotest.(check int) "sees the initial x" 1 v
  | _ -> Alcotest.fail "ancient read failed"

(* An update transaction with a very old timestamp aborts if it touches
   anything updated since (§4.2). *)
let test_time_travel_update_aborts () =
  let db = Core.Db.open_db ~initial:[ ("x", 1) ] ~multiversion:true () in
  let w = Core.Db.begin_tx db ~level:L.Snapshot in
  assert (Core.Db.write w "x" 2 = Core.Db.Ok ());
  assert (Core.Db.commit w = Core.Db.Ok ());
  let old = Core.Db.begin_tx_at db ~level:L.Snapshot ~start_ts:0 in
  assert (Core.Db.write old "x" 9 = Core.Db.Ok ());
  match Core.Db.commit old with
  | Core.Db.Rolled_back Core.Engine.First_committer_wins -> ()
  | _ -> Alcotest.fail "expected a First-Committer-Wins abort"

(* Version garbage collection: a vacuum with no active transactions keeps
   one version per key; reads at or above the horizon are unchanged. *)
let test_vacuum () =
  let e = Core.Mv_engine.create ~initial:[ ("x", 0) ] ~predicates:[] () in
  let module VS = Storage.Version_store in
  for i = 1 to 5 do
    Core.Mv_engine.begin_txn e i ~level:Core.Mv_engine.Snapshot_isolation;
    ignore (Core.Mv_engine.step e i (P.Write ("x", P.const i)));
    ignore (Core.Mv_engine.step e i P.Commit)
  done;
  let vs = Core.Mv_engine.version_store e in
  Alcotest.(check int) "six versions before" 6 (VS.version_count vs);
  (* An active reader pins its snapshot. *)
  Core.Mv_engine.begin_txn_at e 10 ~level:Core.Mv_engine.Snapshot_isolation
    ~start_ts:3;
  let dropped = Core.Mv_engine.vacuum e in
  Alcotest.(check int) "dropped below the pinned snapshot" 3 dropped;
  (match Core.Mv_engine.step e 10 (P.Read "x") with
  | Core.Mv_engine.Progress -> ()
  | _ -> Alcotest.fail "pinned reader must proceed");
  Alcotest.(check (option (option int))) "pinned reader still sees ts3"
    (Some (Some 3))
    (Some (Core.Program.read_result (Core.Mv_engine.env e 10) "x"));
  ignore (Core.Mv_engine.step e 10 P.Commit);
  (* With nothing active, everything but the latest goes. *)
  let dropped = Core.Mv_engine.vacuum e in
  Alcotest.(check int) "rest dropped" 2 dropped;
  Alcotest.(check int) "one version left" 1 (VS.version_count vs);
  Alcotest.(check (option int)) "latest value intact" (Some 5)
    (VS.read_at vs ~ts:5 "x")

let test_prune_preserves_horizon_reads () =
  let module VS = Storage.Version_store in
  let vs = VS.of_list [ ("x", 0); ("y", 0) ] in
  VS.install vs ~writer:1 ~commit_ts:1 [ ("x", Some 1) ];
  VS.install vs ~writer:2 ~commit_ts:2 [ ("x", Some 2); ("y", None) ];
  VS.install vs ~writer:3 ~commit_ts:3 [ ("x", Some 3) ];
  let before =
    List.map (fun ts -> (VS.read_at vs ~ts "x", VS.read_at vs ~ts "y")) [ 2; 3 ]
  in
  ignore (VS.prune vs ~horizon:2);
  let after =
    List.map (fun ts -> (VS.read_at vs ~ts "x", VS.read_at vs ~ts "y")) [ 2; 3 ]
  in
  Alcotest.(check (list (pair (option int) (option int))))
    "reads at and above the horizon unchanged" before after

(* Version GC runs on its own commit cadence: with checkpoints off, the
   engine still vacuums every 1,024 commits, so chains stay bounded, each
   prune reaches the WAL as a Watermark, and crash recovery of that log
   still rebuilds the ideal store. Commit i moves one unit between keys
   i and i+1 (of 8), so each key takes 256 writes per 1,024 commits and
   768 over the run: without the cadence its chain would reach 769. *)
let test_vacuum_cadence_without_checkpoints () =
  let module VS = Storage.Version_store in
  let module Wal = Storage.Wal in
  let nkeys = 8 and cadence = 1024 in
  let key i = Printf.sprintf "k%d" (i mod nkeys) in
  let initial = List.init nkeys (fun i -> (key i, 100)) in
  let e = Core.Mv_engine.create ~initial ~predicates:[] ~checkpoint_every:0 () in
  let vs = Core.Mv_engine.version_store e in
  let longest () =
    List.fold_left (fun acc k -> max acc (List.length (VS.chain vs k))) 0 (VS.keys vs)
  in
  let worst = ref 0 in
  for i = 1 to 3 * cadence do
    Core.Mv_engine.begin_txn e i ~level:Core.Mv_engine.Snapshot_isolation;
    let step op =
      match Core.Mv_engine.step e i op with
      | Core.Mv_engine.Progress -> ()
      | _ -> Alcotest.failf "T%d did not progress" i
    in
    let from = key i and into = key (i + 1) in
    step (P.Read from);
    step (P.Read into);
    step (P.Write (from, P.read_plus from (-1)));
    step (P.Write (into, P.read_plus into 1));
    step P.Commit;
    Core.Mv_engine.forget e i;
    worst := max !worst (longest ());
    if i mod cadence = 0 then
      Alcotest.(check int)
        (Printf.sprintf "one version per key after commit %d" i)
        1 (longest ())
  done;
  Alcotest.(check bool)
    (Printf.sprintf "chains bounded by one cadence's writes (longest %d)" !worst)
    true
    (!worst <= 1 + (2 * cadence / nkeys));
  let wal = Core.Mv_engine.wal e in
  let watermarks =
    List.length
      (List.filter (function Wal.Watermark _ -> true | _ -> false) (Wal.records wal))
  in
  Alcotest.(check int) "one Watermark per cadence" 3 watermarks;
  Alcotest.(check bool) "recover_mv equals ideal_mv" true
    (VS.equal
       (Storage.Recovery.recover_mv ~initial wal).Storage.Recovery.vstate
       (Storage.Recovery.ideal_mv ~initial wal));
  Alcotest.(check (list (pair string int))) "recovered state is the live one"
    (Core.Mv_engine.final_state e)
    (VS.to_latest_list
       (Storage.Recovery.recover_mv ~initial wal).Storage.Recovery.vstate)

let suite =
  [
    Alcotest.test_case "vacuum" `Quick test_vacuum;
    Alcotest.test_case "vacuum cadence without checkpoints" `Quick
      test_vacuum_cadence_without_checkpoints;
    Alcotest.test_case "prune preserves horizon reads" `Quick
      test_prune_preserves_horizon_reads;
    Alcotest.test_case "SI reads its snapshot" `Quick test_si_reads_snapshot;
    Alcotest.test_case "SI sees its own writes" `Quick test_si_sees_own_writes;
    Alcotest.test_case "First-Committer-Wins" `Quick
      test_si_fcw_aborts_second_committer;
    Alcotest.test_case "disjoint writers both commit" `Quick
      test_si_disjoint_writes_both_commit;
    Alcotest.test_case "write skew materializes (H5)" `Quick
      test_si_write_skew_materializes;
    Alcotest.test_case "First-Updater-Wins aborts at write" `Quick
      test_fuw_aborts_at_write_time;
    Alcotest.test_case "First-Updater-Wins blocks behind writer" `Quick
      test_fuw_blocks_behind_active_writer;
    Alcotest.test_case "Oracle statement-level reads" `Quick
      test_oracle_statement_level_reads;
    Alcotest.test_case "Oracle first-writer-wins allows P4" `Quick
      test_oracle_first_writer_wins_allows_lost_update;
    Alcotest.test_case "Oracle for-update cursor prevents P4C" `Quick
      test_oracle_for_update_cursor_prevents_p4c;
    Alcotest.test_case "SI rescans see no phantoms" `Quick
      test_si_no_phantom_on_rescan;
    Alcotest.test_case "own inserts visible to scans" `Quick
      test_si_insert_visible_to_own_scan;
    Alcotest.test_case "deletes install tombstones" `Quick
      test_si_delete_installs_tombstone;
    Alcotest.test_case "SSI prevents write skew" `Quick
      test_ssi_prevents_write_skew;
    Alcotest.test_case "SSI prevents predicate phantoms" `Quick
      test_ssi_prevents_predicate_phantom;
    Alcotest.test_case "SSI validation timing" `Quick
      test_ssi_read_only_never_aborts;
    Alcotest.test_case "SSI validates an early read" `Quick
      test_ssi_validates_early_read;
    Alcotest.test_case "time travel" `Quick test_time_travel;
    Alcotest.test_case "time-travel updates abort" `Quick
      test_time_travel_update_aborts;
  ]
