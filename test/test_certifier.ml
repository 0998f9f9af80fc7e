(* The online serializability certifier.

   Unit tests feed hand-written histories through {!Certifier.replay}
   and pin verdicts, edge accounting and enforcement semantics; the
   property tests run the real pool and hold the certifier to its two
   contracts: (1) the replay verdict agrees with the offline oracle's
   serializability class on every recorded history, at every isolation
   level, across seeds; (2) an enforcing run's committed projection is
   serializable at any level — anomalies are certified away, not
   observed. A regression test pins the oracle's verdict on a
   three-transaction dependency cycle that no pair of its members
   closes. *)

module Pool = Runtime.Pool
module Oracle = Runtime.Oracle
module Cert = Runtime.Certifier
module Metrics = Runtime.Metrics
module Generators = Workload.Generators
module L = Isolation.Level
module A = History.Action

let h = History.of_string

(* {2 Replay on hand-written histories} *)

let test_replay_serial () =
  let s = Cert.replay (h "r1[x=0] w1[x=1] c1 r2[x=1] w2[y=1] c2") in
  Alcotest.(check bool) "serial history certifies" true s.Cert.serializable;
  Alcotest.(check int) "no cycles" 0 s.Cert.cycles;
  Alcotest.(check bool) "wr edge recorded" true (s.Cert.edges_wr >= 1)

let test_replay_lost_update () =
  (* The P4 template: both read x=100, both write — T1 -> T2 by rw,
     T2 -> T1 by ww/rw. Not serializable. *)
  let s = Cert.replay (h "r1[x=100] r2[x=100] w2[x=120] c2 w1[x=130] c1") in
  Alcotest.(check bool) "lost update is not serializable" false
    s.Cert.serializable;
  Alcotest.(check bool) "witness produced" true (s.Cert.witness <> None)

let test_replay_aborted_writer_excluded () =
  (* A dirty read whose writer aborts: the committed projection is just
     T2, trivially serializable — aborted transactions must not leave
     edges behind. *)
  let s = Cert.replay (h "w1[x=1] r2[x=1] a1 w2[y=1] c2") in
  Alcotest.(check bool) "committed projection certifies" true
    s.Cert.serializable

let test_replay_wr_cycle_witness () =
  (* A pure rw cycle across three keys (the write-skew shape stretched
     to three transactions): every closing edge class reported. *)
  let s =
    Cert.replay (h "r1[x=0] w2[x=1] r2[y=0] w3[y=1] r3[z=0] w1[z=1] c1 c2 c3")
  in
  Alcotest.(check bool) "three-txn rw cycle caught" false s.Cert.serializable;
  match s.Cert.witness with
  | Some w -> Alcotest.(check int) "witness covers the triangle" 3 (List.length w)
  | None -> Alcotest.fail "no witness"

let test_replay_mv_snapshot_reads_certify () =
  (* Multiversion: T2 reads the version before T1's committed write —
     a single-version analysis would call r2 a fuzzy read, but the MVSG
     (version order = commit order) is acyclic. *)
  let s = Cert.replay (h "w1[x1=1] c1 r2[x0=0] w2[y2=1] c2") in
  Alcotest.(check bool) "snapshot read certifies" true s.Cert.serializable

let test_replay_mv_write_skew_rejected () =
  (* SI's signature anomaly in version vocabulary: disjoint writes off a
     common snapshot — rw both ways, an MVSG cycle. *)
  let s =
    Cert.replay
      (h "r1[x0=0] r1[y0=0] r2[x0=0] r2[y0=0] w1[x1=1] c1 w2[y2=1] c2")
  in
  Alcotest.(check bool) "write skew is not one-copy serializable" false
    s.Cert.serializable

(* {2 Enforcement semantics} *)

let test_enforce_dooms_the_closer () =
  (* Feed the three-transaction rw triangle action by action: the last
     read/write belongs to T1 and closes the cycle, so Enforce must doom
     T1 — and once T1 aborts instead of committing, the committed
     projection is serializable. *)
  let c = Cert.create ~mode:Cert.Enforce ~family:`Locking () in
  let feed s = List.iteri (fun i a -> Cert.observe c i a) (h s) in
  feed "r1[x=0] w2[x=1] r2[y=0] w3[y=1] r3[z=0]";
  Alcotest.(check bool) "nobody doomed yet" false
    (List.exists (Cert.doomed c) [ 1; 2; 3 ]);
  feed "w1[z=1]";
  Alcotest.(check bool) "the closer is doomed" true (Cert.doomed c 1);
  Alcotest.(check bool) "bystanders are not" false
    (Cert.doomed c 2 || Cert.doomed c 3);
  feed "a1 c2 c3";
  let s = Cert.finalize c in
  Alcotest.(check int) "one cycle rejected" 1 s.Cert.cycles;
  Alcotest.(check int) "one doom" 1 s.Cert.dooms;
  Alcotest.(check bool) "committed projection serializable" true
    s.Cert.serializable;
  (* The violation names the closing edge's class and victim. *)
  match s.Cert.violations with
  | [ v ] ->
    Alcotest.(check string) "closing edge class" "rw" v.Cert.dep;
    Alcotest.(check (option int)) "doomed is recorded" (Some 1) v.Cert.doomed
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_observe_mode_never_dooms () =
  let c = Cert.create ~mode:Cert.Observe ~family:`Locking () in
  List.iteri (fun i a -> Cert.observe c i a)
    (h "r1[x=100] r2[x=100] w2[x=120] c2 w1[x=130] c1");
  Alcotest.(check bool) "observe dooms nobody" false
    (Cert.doomed c 1 || Cert.doomed c 2);
  let s = Cert.finalize c in
  Alcotest.(check bool) "cycle still recorded" true (s.Cert.cycles >= 1);
  Alcotest.(check int) "no dooms" 0 s.Cert.dooms;
  Alcotest.(check bool) "verdict still falls" false s.Cert.serializable

(* {2 The doom-poll contract}

   A second thread holds the certifier lock by blocking inside the
   [on_edge] callback of its own flush. Meanwhile a non-waiting poll
   must answer at once from the published doom set — a doom recorded
   earlier is visible, one still in the batch buffer is not yet — while
   a waiting (commit) poll must queue for the lock, drain the buffer and
   catch the buffered doom. The holder gives up after 5 s, so a poll
   that wrongly waits fails the timing check instead of hanging. *)
let test_doom_poll_contract () =
  let armed = Atomic.make false
  and held = Atomic.make false
  and release = Atomic.make false in
  let rec wait_for flag deadline =
    if not (Atomic.get flag) && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.001;
      wait_for flag deadline
    end
  in
  let on_edge ~src:_ ~dst:_ ~dep:_ =
    if Atomic.compare_and_set armed true false then begin
      Atomic.set held true;
      wait_for release (Unix.gettimeofday () +. 5.)
    end
  in
  let c =
    Cert.create ~on_edge ~batch:true ~mode:Cert.Enforce ~family:`Locking ()
  in
  let feed s = List.iteri (fun i a -> Cert.observe c i a) (h s) in
  (* T1 closes the first triangle; a waiting poll drains and publishes. *)
  feed "r1[x=0] w2[x=1] r2[y=0] w3[y=1] r3[z=0] w1[z=1]";
  Alcotest.(check bool) "T1 doomed (exact poll)" true (Cert.doomed c 1);
  (* The holder flushes an edge-producing pair and blocks on its edge. *)
  feed "w7[q=1] r8[q=1]";
  Atomic.set armed true;
  let holder = Thread.create (fun () -> Cert.flush c) () in
  wait_for held (Unix.gettimeofday () +. 5.);
  Alcotest.(check bool) "the holder has the lock" true (Atomic.get held);
  (* T4 closes a second triangle, still in the batch buffer. *)
  feed "r4[a=0] w5[a=1] r5[b=0] w6[b=1] r6[c=0] w4[c=1]";
  let t0 = Unix.gettimeofday () in
  let published_1 = Cert.doomed ~wait:false c 1 in
  let published_4 = Cert.doomed ~wait:false c 4 in
  let published_2 = Cert.doomed ~wait:false c 2 in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "non-commit polls do not wait" true (elapsed < 1.);
  Alcotest.(check bool) "published doom is seen" true published_1;
  Alcotest.(check bool) "buffered doom is not yet published" false published_4;
  Alcotest.(check bool) "bystander is not doomed" false published_2;
  (* The commit poll queues behind the holder, then drains. *)
  let commit_answer = Atomic.make None in
  let committer =
    Thread.create
      (fun () -> Atomic.set commit_answer (Some (Cert.doomed ~wait:true c 4)))
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check (option bool)) "commit poll waits for the lock" None
    (Atomic.get commit_answer);
  Atomic.set release true;
  Thread.join holder;
  Thread.join committer;
  Alcotest.(check (option bool)) "commit poll catches the buffered doom"
    (Some true) (Atomic.get commit_answer);
  Alcotest.(check bool) "and publishes it" true (Cert.doomed ~wait:false c 4)

(* {2 The commit-poll seal}

   The pool's commit step follows its waiting doom poll with no poll
   after it. A cycle that closes between the two must not doom the
   cleared transaction, or it would commit doomed: it dooms another
   member or counts as a miss. Here T1 (the youngest active member, so
   the natural victim) is cleared, then T3's commit installs its version
   of x after T2's, closing T2 -> T3 -> T1 -> T2 with no actor to doom. *)

let test_commit_poll_seal () =
  let c = Cert.create ~mode:Cert.Enforce ~family:`Mv () in
  let feed = List.iteri (fun i a -> Cert.observe c i a) in
  feed
    [
      A.write ~ver:3 3 "x";
      A.read ~ver:0 3 "z";
      A.read ~ver:0 1 "w";
      A.write ~ver:1 1 "z" (* rw T3 -> T1: T3 read z0 *);
      A.write ~ver:2 2 "x";
      A.write ~ver:2 2 "w" (* rw T1 -> T2: T1 read w0 *);
      A.commit 2;
    ];
  Alcotest.(check bool) "T1's commit poll clears it" false
    (Cert.doomed ~wait:true c 1);
  Alcotest.(check bool) "T3's commit poll clears it" false
    (Cert.doomed ~wait:true c 3);
  Alcotest.(check int) "no cycle yet" 0 (Cert.stats c).Cert.s_cycles;
  (* T3's commit orders x2 before x3: ww T2 -> T3 closes the cycle *)
  feed [ A.commit 3 ];
  let s = Cert.stats c in
  Alcotest.(check int) "the commit closes one cycle" 1 s.Cert.s_cycles;
  Alcotest.(check bool) "the cleared T1 is not doomed" false
    (Cert.doomed ~wait:false c 1);
  Alcotest.(check bool) "another member is doomed or a miss is counted" true
    (s.Cert.s_misses + s.Cert.s_dooms >= 1);
  feed [ A.commit 1 ];
  let summary = Cert.finalize c in
  Alcotest.(check bool) "the committed projection is not serializable" false
    summary.Cert.serializable

(* {2 The three-transaction cycle}

   No two of the triangle's members close a cycle, so a judge that
   looked at fewer than all three at once would pass it; the oracle must
   find it on the whole history. *)

let test_oracle_catches_triangle () =
  let hist = h "r1[x=0] w2[x=1] r2[y=0] w3[y=1] r3[z=0] w1[z=1] c1 c2 c3" in
  let full = Oracle.check hist in
  Alcotest.(check bool) "full check: not serializable" false
    full.Oracle.serializable;
  Alcotest.(check (option (list int))) "cycle witness" (Some [ 1; 2; 3 ])
    full.Oracle.cycle

(* {2 Properties over real pool runs} *)

let seeds = List.init 20 (fun i -> i + 1)

let levels =
  [
    L.Read_committed;
    L.Repeatable_read;
    L.Serializable;
    L.Snapshot;
    L.Serializable_snapshot;
    L.Timestamp_ordering;
  ]

let run_pool ?(certify = false) ~level ~seed () =
  let gen i =
    let p =
      Generators.stress_program Generators.Hotspot ~seed ~accounts:8 ~hot:3
        ~ops:4 ~index:i
    in
    Pool.job ~name:p.Core.Program.name ~level p
  in
  let cfg =
    Pool.config ~workers:4
      ~initial:(Generators.bank_accounts 8)
      ~think_us:10. ~seed ~certify ()
  in
  Pool.run_n cfg ~txns:24 ~gen

(* Contract (1): the incremental replay's verdict equals the offline
   oracle's on every history the pool can produce — locking, snapshot
   and timestamp families alike. *)
let test_replay_agrees_with_oracle () =
  List.iter
    (fun level ->
      List.iter
        (fun seed ->
          let r = run_pool ~level ~seed () in
          let replay = Cert.replay r.Pool.history in
          if replay.Cert.serializable <> (Option.get r.Pool.oracle).Oracle.serializable then
            Alcotest.failf "%s seed %d: replay says %b, oracle says %b"
              (L.name level) seed replay.Cert.serializable
              (Option.get r.Pool.oracle).Oracle.serializable)
        seeds)
    levels

(* Contract (2): enforcing runs commit only a serializable projection —
   at READ COMMITTED, where cycles genuinely form, the certifier must
   abort its way to an acyclic history across every seed. *)
let test_enforced_runs_certify_clean () =
  List.iter
    (fun level ->
      List.iter
        (fun seed ->
          let r = run_pool ~certify:true ~level ~seed () in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d serializable" (L.name level) seed)
            true (Option.get r.Pool.oracle).Oracle.serializable;
          match r.Pool.certifier with
          | None -> Alcotest.fail "certifier summary missing"
          | Some s ->
            Alcotest.(check bool)
              (Printf.sprintf "%s seed %d summary verdict" (L.name level) seed)
              true s.Cert.serializable;
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d dooms = metric" (L.name level) seed)
              s.Cert.dooms r.Pool.metrics.Metrics.certifier_aborts)
        seeds)
    [ L.Read_committed; L.Serializable ]

(* At SERIALIZABLE the engine already prevents cycles, so certification
   must be a no-op: no dooms, no anomalies, pattern-free — the ISSUE's
   20-seed acceptance bar. *)
let test_serializable_certify_is_noop () =
  List.iter
    (fun seed ->
      let r = run_pool ~certify:true ~level:L.Serializable ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d pattern-free" seed)
        true
        (Oracle.pattern_free (Option.get r.Pool.oracle));
      Alcotest.(check int)
        (Printf.sprintf "seed %d no certifier aborts" seed)
        0 r.Pool.metrics.Metrics.certifier_aborts)
    seeds

(* The poll contract under real concurrency: two workers contend for
   the certifier lock, so a non-commit poll may read the published set.
   Cycles still never reach the committed projection, and no transaction
   the certifier doomed ever commits. The 1 µs think time is what makes
   the two workers interleave: a statement's sleep hands the CPU to the
   other worker. With none, a 48-job run on a small host often executes
   its transactions back to back (one worker runs them all, or the two
   alternate whole transactions), and a sweep then dooms no one; with it
   every seed dooms several. *)
let test_two_worker_polls_never_commit_a_doom () =
  List.iter
    (fun level ->
      let dooms = ref 0 in
      List.iter
        (fun seed ->
          let gen i =
            let p =
              Generators.stress_program Generators.Hotspot ~seed ~accounts:8
                ~hot:3 ~ops:4 ~index:i
            in
            Pool.job ~name:p.Core.Program.name ~level p
          in
          let cfg =
            Pool.config ~workers:2
              ~initial:(Generators.bank_accounts 8)
              ~think_us:1. ~seed ~certify:true ()
          in
          let r = Pool.run_n cfg ~txns:48 ~gen in
          let tag what = Printf.sprintf "%s seed %d %s" (L.name level) seed what in
          match r.Pool.certifier with
          | None -> Alcotest.fail "certifier summary missing"
          | Some s ->
            dooms := !dooms + s.Cert.dooms;
            Alcotest.(check bool) (tag "serializable") true s.Cert.serializable;
            Alcotest.(check bool) (tag "oracle agrees") true
              (Option.get r.Pool.oracle).Oracle.serializable;
            let committed =
              List.filter_map
                (function A.Commit t -> Some t | _ -> None)
                r.Pool.history
            in
            List.iter
              (fun (v : Cert.violation) ->
                match v.Cert.doomed with
                | Some d when List.mem d committed ->
                  Alcotest.failf "%s" (tag (Printf.sprintf "doomed T%d committed" d))
                | _ -> ())
              s.Cert.violations)
        seeds;
      Alcotest.(check bool)
        (Printf.sprintf "%s: the sweep dooms someone" (L.name level))
        true (!dooms > 0))
    [ L.Snapshot; L.Read_committed ]

let suite =
  [
    Alcotest.test_case "replay: serial history" `Quick test_replay_serial;
    Alcotest.test_case "replay: lost update rejected" `Quick
      test_replay_lost_update;
    Alcotest.test_case "replay: aborted writer excluded" `Quick
      test_replay_aborted_writer_excluded;
    Alcotest.test_case "replay: rw triangle witness" `Quick
      test_replay_wr_cycle_witness;
    Alcotest.test_case "replay: MV snapshot reads certify" `Quick
      test_replay_mv_snapshot_reads_certify;
    Alcotest.test_case "replay: MV write skew rejected" `Quick
      test_replay_mv_write_skew_rejected;
    Alcotest.test_case "enforce dooms the closer" `Quick
      test_enforce_dooms_the_closer;
    Alcotest.test_case "observe mode never dooms" `Quick
      test_observe_mode_never_dooms;
    Alcotest.test_case "doom poll: only the commit poll waits" `Quick
      test_doom_poll_contract;
    Alcotest.test_case "oracle catches the three-txn cycle" `Quick
      test_oracle_catches_triangle;
    Alcotest.test_case "replay agrees with the oracle (20 seeds x levels)"
      `Slow test_replay_agrees_with_oracle;
    Alcotest.test_case "enforced runs certify clean (20 seeds)" `Slow
      test_enforced_runs_certify_clean;
    Alcotest.test_case "certify at SERIALIZABLE is a no-op (20 seeds)" `Slow
      test_serializable_certify_is_noop;
    Alcotest.test_case "2 workers never commit a doomed tid (20 seeds)" `Slow
      test_two_worker_polls_never_commit_a_doom;
    Alcotest.test_case "a cleared commit poll seals its tid" `Quick
      test_commit_poll_seal;
  ]
