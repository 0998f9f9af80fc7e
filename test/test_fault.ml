(* Fault injection and crash-point enumeration.

   Unit tests pin the deterministic plan and the torn-tail WAL
   semantics; the crash enumerator is checked against a hand-built P0
   log (it must flag the paper's §3 dilemma at exactly the unsound
   points) and, as a property, against real pool runs at a P0-free
   level (every one of the 2n+1 crash images must recover to the ideal
   state). The runtime tests assert interleaving-independent invariants
   only: injected faults drain through retry, deadlines abort
   gracefully, committed effects are conserved. *)

module Store = Storage.Store
module Wal = Storage.Wal
module Recovery = Storage.Recovery
module Plan = Fault.Plan
module Crash = Fault.Crash
module Pool = Runtime.Pool
module Oracle = Runtime.Oracle
module Metrics = Runtime.Metrics
module Generators = Workload.Generators
module L = Isolation.Level

let store_eq = Alcotest.testable Store.pp Store.equal

let log records =
  let w = Wal.create () in
  List.iter (Wal.append w) records;
  w

(* {2 Torn-tail WAL semantics} *)

(* A Commit torn off the tail never took effect: the transaction is a
   loser, exactly as if the crash had struck one record earlier. *)
let test_torn_commit_is_loser () =
  let w =
    log
      [ Wal.Begin 1;
        Wal.Update { t = 1; k = "x"; before = Some 0; after = Some 5 };
        Wal.Commit 1 ]
  in
  let torn = Wal.torn_prefix w 3 in
  Alcotest.(check int) "all records present" 3 (List.length (Wal.records torn));
  Alcotest.(check int) "intact excludes the torn tail" 2
    (List.length (Wal.intact torn));
  Alcotest.(check (list int)) "torn commit never took effect" [] (Wal.committed torn);
  Alcotest.(check (list int)) "T1 is in flight" [ 1 ] (Wal.losers torn);
  let initial = Store.of_list [ ("x", 0) ] in
  Alcotest.(check store_eq) "recovery rolls T1 back"
    (Store.of_list [ ("x", 0) ])
    (Recovery.recover ~initial torn).Recovery.state

let test_prefixes () =
  let records =
    [ Wal.Begin 1;
      Wal.Update { t = 1; k = "x"; before = Some 0; after = Some 1 };
      Wal.Commit 1 ]
  in
  let w = log records in
  Alcotest.(check int) "empty prefix" 0 (Wal.length (Wal.prefix w 0));
  Alcotest.(check int) "full prefix" 3 (Wal.length (Wal.prefix w 3));
  Alcotest.(check bool) "full prefix not torn" false
    (Wal.torn_tail (Wal.prefix w 3) <> None);
  Alcotest.(check bool) "torn prefix marks its tail" true
    (Wal.torn_tail (Wal.torn_prefix w 2) <> None);
  Alcotest.check_raises "prefix out of range"
    (Invalid_argument "Wal.prefix: 4 not in [0, 3]") (fun () ->
      ignore (Wal.prefix w 4));
  Alcotest.check_raises "torn_prefix needs a record"
    (Invalid_argument "Wal.torn_prefix: 0 not in [1, 3]") (fun () ->
      ignore (Wal.torn_prefix w 0))

(* {2 Plan determinism} *)

let test_plan_deterministic () =
  let mk () = Plan.create ~stall_rate:0.3 ~step_fail_rate:0.3 ~victim_rate:0.3 ~seed:42 () in
  let p1 = mk () and p2 = mk () in
  let sites =
    List.init 200 (fun i -> (i / 10, Plan.Step { seq = i mod 10 }))
  in
  List.iter
    (fun (tid, site) ->
      let a1 = Plan.point p1 ~tid site and a2 = Plan.point p2 ~tid site in
      Alcotest.(check bool) "same seed, same decision" true (a1 = a2))
    sites;
  Alcotest.(check int) "counters agree" (Plan.total p1) (Plan.total p2);
  Alcotest.(check bool) "something fired at rate 0.3" true (Plan.total p1 > 0)

let test_plan_rates () =
  (* rate 0 never fires; rate 1 always fires. *)
  let never = Plan.create ~seed:1 () in
  let always = Plan.create ~stall_rate:1.0 ~seed:1 () in
  for tid = 1 to 50 do
    Alcotest.(check bool) "rate 0 silent" true
      (Plan.point never ~tid (Plan.Step { seq = 0 }) = None);
    match Plan.point always ~tid (Plan.Step { seq = 0 }) with
    | Some (Plan.Stall _) -> ()
    | _ -> Alcotest.fail "rate 1 must stall"
  done;
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Fault.Plan.create: stall rate 2 not in [0, 1]")
    (fun () -> ignore (Plan.create ~stall_rate:2.0 ~seed:1 ()))

(* {2 Crash-point enumeration} *)

(* The §3 dilemma, enumerated: w1[x] w2[x] c2 with T1 in flight. Only
   the crash points where T2's commit is durable and T1 is still in
   flight are unsound — the enumerator must find exactly those. *)
let test_enumerate_flags_p0 () =
  let initial = Store.of_list [ ("x", 0) ] in
  let w =
    log
      [ Wal.Begin 1;
        Wal.Update { t = 1; k = "x"; before = Some 0; after = Some 1 };
        Wal.Begin 2;
        Wal.Update { t = 2; k = "x"; before = Some 1; after = Some 2 };
        Wal.Commit 2 ]
  in
  let r = Crash.enumerate ~initial w in
  Alcotest.(check int) "5 records" 5 r.Crash.records;
  Alcotest.(check int) "6 prefixes" 6 r.Crash.points;
  Alcotest.(check int) "5 torn tails" 5 r.Crash.torn_points;
  Alcotest.(check bool) "P0 log is unsound somewhere" false (Crash.ok r);
  (* the full log: c2 durable, T1 in flight, undo wipes x back to 0 *)
  Alcotest.(check bool) "full prefix is a failing point" true
    (List.exists
       (fun f -> f.Crash.point = 5 && (not f.Crash.torn) && f.Crash.undone = [ 1 ])
       r.Crash.failures);
  (* before c2 is durable, rolling both back is consistent *)
  Alcotest.(check bool) "prefixes before the commit recover" true
    (List.for_all (fun f -> f.Crash.point >= 5) r.Crash.failures)

let test_enumerate_clean_log () =
  let initial = Store.of_list [ ("x", 0); ("y", 0) ] in
  let w =
    log
      [ Wal.Begin 1;
        Wal.Update { t = 1; k = "x"; before = Some 0; after = Some 1 };
        Wal.Commit 1;
        Wal.Begin 2;
        Wal.Update { t = 2; k = "y"; before = Some 0; after = Some 9 } ]
  in
  let r = Crash.enumerate ~initial w in
  Alcotest.(check bool) "serial log recovers everywhere" true (Crash.ok r);
  Alcotest.(check int) "checked every image" 11 (r.Crash.points + r.Crash.torn_points)

(* {2 Sampled enumeration}

   [?sample] must be deterministic in the seed, bounded by the budget
   plus the always-checked decisive points, and still catch the §3
   dilemma — the full prefix and every torn terminal record are never
   sampled away. *)

(* A long clean serial log: [n] one-update committed transactions. *)
let serial_log n =
  let w = Wal.create () in
  for t = 1 to n do
    Wal.append w (Wal.Begin t);
    Wal.append w (Wal.Update { t; k = "x"; before = Some (t - 1); after = Some t });
    Wal.append w (Wal.Commit t)
  done;
  w

let test_sample_deterministic () =
  let initial = Store.of_list [ ("x", 0) ] in
  let w = serial_log 40 in
  let a = Crash.enumerate ~sample:10 ~seed:42 ~initial w in
  let b = Crash.enumerate ~sample:10 ~seed:42 ~initial w in
  Alcotest.(check int) "same clean points" a.Crash.points b.Crash.points;
  Alcotest.(check int) "same torn points" a.Crash.torn_points b.Crash.torn_points;
  Alcotest.(check bool) "same verdict" (Crash.ok a) (Crash.ok b);
  Alcotest.(check bool) "clean log passes sampled" true (Crash.ok a)

let test_sample_bounded_but_complete () =
  let initial = Store.of_list [ ("x", 0) ] in
  let w = serial_log 40 in
  let n = Wal.length w in
  let terminals = 40 (* one Commit per transaction *) in
  let r = Crash.enumerate ~sample:10 ~seed:3 ~initial w in
  Alcotest.(check int) "full log length" 120 n;
  Alcotest.(check bool) "clean prefixes capped near the budget" true
    (r.Crash.points <= 10 + 2 (* budget + {empty, full} *));
  Alcotest.(check bool) "fewer than exhaustive" true (r.Crash.points < n + 1);
  Alcotest.(check bool) "torn points capped near budget + terminals" true
    (r.Crash.torn_points <= 10 + terminals && r.Crash.torn_points >= terminals);
  (* A budget at least the span degenerates to the exhaustive check. *)
  let full = Crash.enumerate ~sample:1000 ~initial w in
  Alcotest.(check int) "big budget = every prefix" (n + 1) full.Crash.points;
  Alcotest.(check int) "big budget = every torn tail" n full.Crash.torn_points

let test_sample_still_flags_p0 () =
  (* The P0 log's only unsound points are the full prefix and the torn
     terminal — exactly the points sampling always keeps, so even a
     budget of 1 must convict. *)
  let initial = Store.of_list [ ("x", 0) ] in
  let w =
    log
      [ Wal.Begin 1;
        Wal.Update { t = 1; k = "x"; before = Some 0; after = Some 1 };
        Wal.Begin 2;
        Wal.Update { t = 2; k = "x"; before = Some 1; after = Some 2 };
        Wal.Commit 2 ]
  in
  let r = Crash.enumerate ~sample:1 ~seed:9 ~initial w in
  Alcotest.(check bool) "sampled run still flags P0" false (Crash.ok r);
  Alcotest.(check bool) "the full prefix is among the failures" true
    (List.exists
       (fun f -> f.Crash.point = 5 && not f.Crash.torn)
       r.Crash.failures)

(* {2 Multiversion enumeration} *)

(* A versioned log with a stamped committer and an unstamped installer:
   every crash image — including the ones that tear the Vcommit stamp
   off the tail — must recover to the committed-prefix ideal. *)
let test_enumerate_mv_clean_log () =
  let initial = [ ("x", 0); ("y", 0) ] in
  let w =
    log
      [ Wal.Begin 1;
        Wal.Vinstall { t = 1; k = "x"; value = Some 1 };
        Wal.Vcommit { t = 1; ts = 1 };
        Wal.Begin 2;
        Wal.Vinstall { t = 2; k = "y"; value = Some 9 } ]
  in
  let r = Crash.enumerate_mv ~initial w in
  Alcotest.(check bool) "versioned log recovers everywhere" true (Crash.ok r);
  Alcotest.(check int) "all 2n+1 images checked" 11
    (r.Crash.points + r.Crash.torn_points)

(* Sampling keeps every torn Vcommit (the MV decisive points — exactly
   where a torn stamp must demote the txn to in-flight). *)
let test_sample_mv_keeps_stamps () =
  let w = Wal.create () in
  for t = 1 to 30 do
    Wal.append w (Wal.Begin t);
    Wal.append w (Wal.Vinstall { t; k = "x"; value = Some t });
    Wal.append w (Wal.Vcommit { t; ts = t })
  done;
  let r = Crash.enumerate_mv ~sample:5 ~seed:7 ~initial:[ ("x", 0) ] w in
  Alcotest.(check bool) "sampled MV enumeration recovers" true (Crash.ok r);
  Alcotest.(check bool) "every torn stamp was kept" true
    (r.Crash.torn_points >= 30);
  let full = Crash.enumerate_mv ~initial:[ ("x", 0) ] w in
  Alcotest.(check bool) "exhaustive agrees" true (Crash.ok full);
  Alcotest.(check int) "exhaustive checks every image"
    (2 * Wal.length w + 1)
    (full.Crash.points + full.Crash.torn_points)

(* Property: a real SERIALIZABLE pool run (2PL long write locks — no P0
   by construction) must recover at every crash point of its WAL, for
   every seed. This is the tentpole guarantee: durability of the
   committed, rollback of the in-flight, at all 2n+1 crash images. *)
let test_stress_runs_recover_everywhere () =
  for seed = 1 to 20 do
    let accounts = 8 in
    let initial = Generators.bank_accounts accounts in
    let jobs =
      Array.init 12 (fun i ->
          let p =
            Generators.stress_program Generators.Hotspot ~seed ~accounts ~hot:2
              ~ops:4 ~index:i
          in
          Pool.job ~name:p.Core.Program.name ~level:L.Serializable p)
    in
    let cfg = Pool.config ~workers:4 ~initial ~think_us:20. ~seed () in
    let r = Pool.run_n cfg ~txns:(Array.length jobs) ~gen:(Array.get jobs) in
    match r.Pool.wal with
    | None -> Alcotest.fail "locking run must expose its WAL"
    | Some wal ->
      let initial_store = Store.of_list initial in
      let report = Crash.enumerate ~initial:initial_store wal in
      if not (Crash.ok report) then
        Alcotest.failf "seed %d: %a" seed Crash.pp report;
      (* and the surviving state is exactly the committed replay *)
      Alcotest.(check store_eq)
        (Printf.sprintf "seed %d: effects conserved" seed)
        (Recovery.ideal_state ~initial:initial_store wal)
        (Store.of_list r.Pool.final)
  done

(* Same property over the segmented on-disk WAL: tiny segments so every
   run's log crosses several rotation edges (crash images that straddle
   a segment boundary are exactly the new code paths), and on even
   seeds aggressive checkpointing so truncated logs with carried undo
   journals get enumerated too. *)
let test_stress_runs_recover_everywhere_segmented () =
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  for seed = 1 to 20 do
    let wal_dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "isolab_fault_wal_%d_%d" (Unix.getpid ()) seed)
    in
    Fun.protect
      ~finally:(fun () -> rm_rf wal_dir)
      (fun () ->
        let accounts = 8 in
        let initial = Generators.bank_accounts accounts in
        let jobs =
          Array.init 12 (fun i ->
              let p =
                Generators.stress_program Generators.Hotspot ~seed ~accounts
                  ~hot:2 ~ops:4 ~index:i
              in
              Pool.job ~name:p.Core.Program.name ~level:L.Serializable p)
        in
        let checkpoint_every = if seed mod 2 = 0 then 4 else 0 in
        let cfg =
          Pool.config ~workers:4 ~initial ~think_us:20. ~seed ~wal_dir
            ~wal_segment_bytes:512 ~checkpoint_every ()
        in
        let r = Pool.run_n cfg ~txns:(Array.length jobs) ~gen:(Array.get jobs) in
        match r.Pool.wal with
        | None -> Alcotest.fail "locking run must expose its WAL"
        | Some wal ->
          let st = Storage.Wal.stats wal in
          if checkpoint_every = 0 && st.Storage.Wal.w_segments < 2 then
            Alcotest.failf "seed %d: log never rotated (%d segments)" seed
              st.Storage.Wal.w_segments;
          if checkpoint_every > 0 && st.Storage.Wal.w_checkpoints = 0 then
            Alcotest.failf "seed %d: no checkpoint was taken" seed;
          let initial_store = Store.of_list initial in
          let report = Crash.enumerate ~initial:initial_store wal in
          if not (Crash.ok report) then
            Alcotest.failf "seed %d (segmented): %a" seed Crash.pp report;
          Alcotest.(check store_eq)
            (Printf.sprintf "seed %d: effects conserved on disk" seed)
            (Recovery.ideal_state ~initial:initial_store wal)
            (Store.of_list r.Pool.final))
  done

(* The same property at SNAPSHOT: the multiversion engine's versioned
   WAL (Vinstall/Vcommit) must replay every one of its 2n+1 crash
   images to the ideal committed-prefix version store, for 20 seeds —
   and the surviving latest rows must equal the committed replay. *)
let test_snapshot_runs_recover_everywhere () =
  for seed = 1 to 20 do
    let accounts = 8 in
    let initial = Generators.bank_accounts accounts in
    let jobs =
      Array.init 12 (fun i ->
          let p =
            Generators.stress_program Generators.Hotspot ~seed ~accounts ~hot:2
              ~ops:4 ~index:i
          in
          Pool.job ~name:p.Core.Program.name ~level:L.Snapshot p)
    in
    let cfg = Pool.config ~workers:4 ~initial ~think_us:20. ~seed () in
    let r = Pool.run_n cfg ~txns:(Array.length jobs) ~gen:(Array.get jobs) in
    match r.Pool.wal with
    | None -> Alcotest.fail "multiversion run must expose its WAL"
    | Some wal ->
      let report = Crash.enumerate_mv ~initial wal in
      if not (Crash.ok report) then
        Alcotest.failf "seed %d: %a" seed Crash.pp report;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "seed %d: effects conserved" seed)
        (List.sort compare
           (Storage.Version_store.to_latest_list
              (Recovery.ideal_mv ~initial wal)))
        (List.sort compare r.Pool.final)
  done

(* {2 Runtime fault injection} *)

let chaos_run ?(txns = 32) ?(workers = 4) ?fault ?deadline_us ?watchdog_us
    ?(seed = 5) () =
  let accounts = 8 in
  let initial = Generators.bank_accounts accounts in
  let jobs =
    Array.init txns (fun i ->
        let p =
          Generators.stress_program Generators.Hotspot ~seed ~accounts ~hot:2
            ~ops:4 ~index:i
        in
        Pool.job ~name:p.Core.Program.name ~level:L.Serializable p)
  in
  let cfg =
    Pool.config ~workers ~initial ~think_us:20. ~seed ?fault ?deadline_us
      ?watchdog_us ()
  in
  (initial, Pool.run_n cfg ~txns:(Array.length jobs) ~gen:(Array.get jobs))

let check_effects_conserved name initial (r : Pool.result) =
  match r.Pool.wal with
  | None -> Alcotest.fail "locking run must expose its WAL"
  | Some wal ->
    let initial_store = Store.of_list initial in
    Alcotest.(check store_eq) name
      (Recovery.ideal_state ~initial:initial_store wal)
      (Store.of_list r.Pool.final)

(* Faults at every class: the workload still drains, the oracle stays
   pattern-free, and no committed effect is lost or duplicated. *)
let test_chaos_drains_clean () =
  let plan = Plan.chaos ~stall_us:500. ~rate:0.15 ~seed:5 () in
  let initial, r = chaos_run ~fault:plan () in
  Alcotest.(check int) "every job eventually commits" 32
    r.Pool.metrics.Metrics.committed;
  Alcotest.(check bool) "faults were actually injected" true
    (r.Pool.metrics.Metrics.faults_injected > 0);
  Alcotest.(check bool) "2PL stays pattern-free under faults" true
    (Oracle.pattern_free (Option.get r.Pool.oracle));
  check_effects_conserved "chaos conserves committed effects" initial r

(* A spurious-failure-only plan: injected aborts surface as the
   [Fault_injected] reason and every one is retried to success. *)
let test_step_fail_aborts_and_retries () =
  let plan = Plan.create ~step_fail_rate:0.3 ~seed:9 () in
  let initial, r = chaos_run ~fault:plan () in
  let fault_aborts =
    try List.assoc Core.Engine.Fault_injected r.Pool.metrics.Metrics.aborted
    with Not_found -> 0
  in
  Alcotest.(check bool) "some attempts were shot down" true (fault_aborts > 0);
  Alcotest.(check int) "all jobs still commit" 32
    r.Pool.metrics.Metrics.committed;
  check_effects_conserved "no effect from aborted attempts" initial r

(* Torn commits: the WAL hook rolls the attempt back as if its Commit
   record never became durable; the retry commits it for real. *)
let test_torn_commit_retries () =
  let plan = Plan.create ~torn_commit_rate:0.4 ~seed:3 () in
  let initial, r = chaos_run ~fault:plan () in
  Alcotest.(check bool) "some commits were torn" true
    (r.Pool.metrics.Metrics.faults_injected > 0);
  Alcotest.(check int) "every job commits after retry" 32
    r.Pool.metrics.Metrics.committed;
  check_effects_conserved "torn commits leave no trace" initial r

(* The MV form: the tear hook fires as the Vcommit stamp would be
   logged — after the Vinstalls made it — so the live log exhibits
   installed-but-unstamped versions closed by a compensating Abort, the
   attempt retries, and the whole log still recovers everywhere. *)
let test_mv_torn_stamp_retries () =
  let plan = Plan.create ~torn_commit_rate:0.4 ~seed:3 () in
  let accounts = 8 in
  let initial = Generators.bank_accounts accounts in
  let jobs =
    Array.init 32 (fun i ->
        let p =
          Generators.stress_program Generators.Hotspot ~seed:3 ~accounts ~hot:2
            ~ops:4 ~index:i
        in
        Pool.job ~name:p.Core.Program.name ~level:L.Snapshot p)
  in
  let cfg = Pool.config ~workers:4 ~initial ~think_us:20. ~seed:3 ~fault:plan () in
  let r = Pool.run_n cfg ~txns:(Array.length jobs) ~gen:(Array.get jobs) in
  Alcotest.(check bool) "some stamps were torn" true
    (r.Pool.metrics.Metrics.faults_injected > 0);
  Alcotest.(check int) "every job commits after retry" 32
    r.Pool.metrics.Metrics.committed;
  let wal = Option.get r.Pool.wal in
  Alcotest.(check (list (pair string int))) "torn stamps leave no trace"
    (List.sort compare
       (Storage.Version_store.to_latest_list (Recovery.ideal_mv ~initial wal)))
    (List.sort compare r.Pool.final);
  Alcotest.(check bool) "and every crash image recovers" true
    (Crash.ok (Crash.enumerate_mv ~initial wal))

(* {2 Deadlines and the watchdog} *)

(* Stalls longer than the deadline: stalled attempts must abort with
   [Deadline_exceeded] and retry; unstalled retries commit. *)
let test_deadline_aborts_gracefully () =
  let plan = Plan.create ~stall_rate:0.3 ~stall_us:8_000. ~seed:13 () in
  let initial, r = chaos_run ~fault:plan ~deadline_us:4_000. () in
  Alcotest.(check bool) "deadlines fired" true
    (r.Pool.metrics.Metrics.deadline_exceeded > 0);
  let dl_aborts =
    try List.assoc Core.Engine.Deadline_exceeded r.Pool.metrics.Metrics.aborted
    with Not_found -> 0
  in
  Alcotest.(check int) "metrics and abort reasons agree"
    r.Pool.metrics.Metrics.deadline_exceeded dl_aborts;
  Alcotest.(check bool) "graceful: no lost effects" true
    (Oracle.pattern_free (Option.get r.Pool.oracle));
  check_effects_conserved "deadline aborts conserve effects" initial r

(* A generous deadline is never hit. *)
let test_generous_deadline_silent () =
  let _, r = chaos_run ~deadline_us:5_000_000. () in
  Alcotest.(check int) "no deadline aborts" 0
    r.Pool.metrics.Metrics.deadline_exceeded;
  Alcotest.(check int) "all commit" 32 r.Pool.metrics.Metrics.committed

(* Every attempt stalls 30ms per step; a 5ms watchdog must notice. *)
let test_watchdog_sees_stalls () =
  let plan = Plan.create ~stall_rate:1.0 ~stall_us:30_000. ~seed:1 () in
  let _, r = chaos_run ~txns:4 ~workers:2 ~fault:plan ~watchdog_us:5_000. () in
  Alcotest.(check bool) "watchdog kicked" true
    (r.Pool.metrics.Metrics.watchdog_kicks > 0);
  Alcotest.(check int) "observation only: jobs still commit" 4
    r.Pool.metrics.Metrics.committed

(* {2 Trace events} *)

let test_fault_events_traced () =
  let plan = Plan.chaos ~stall_us:500. ~rate:0.2 ~seed:5 () in
  let sink = Trace.Sink.create ~workers:4 () in
  let accounts = 8 in
  let initial = Generators.bank_accounts accounts in
  let jobs =
    Array.init 24 (fun i ->
        let p =
          Generators.stress_program Generators.Hotspot ~seed:5 ~accounts ~hot:2
            ~ops:4 ~index:i
        in
        Pool.job ~name:p.Core.Program.name ~level:L.Serializable p)
  in
  let cfg =
    Pool.config ~workers:4 ~initial ~think_us:20. ~seed:5 ~fault:plan
      ~trace:sink ()
  in
  let r = Pool.run_n cfg ~txns:(Array.length jobs) ~gen:(Array.get jobs) in
  let traced =
    List.filter
      (fun (e : Trace.Event.t) ->
        match e.Trace.Event.kind with
        | Trace.Event.Fault_inject _ -> true
        | _ -> false)
      r.Pool.events
  in
  Alcotest.(check bool) "fault_inject events recorded" true (traced <> []);
  Alcotest.(check bool) "trace matches metrics" true
    (List.length traced <= r.Pool.metrics.Metrics.faults_injected)

let suite =
  [
    Alcotest.test_case "torn commit is a loser" `Quick test_torn_commit_is_loser;
    Alcotest.test_case "prefix helpers" `Quick test_prefixes;
    Alcotest.test_case "plan is deterministic" `Quick test_plan_deterministic;
    Alcotest.test_case "plan rate edges" `Quick test_plan_rates;
    Alcotest.test_case "enumeration flags P0" `Quick test_enumerate_flags_p0;
    Alcotest.test_case "enumeration passes a clean log" `Quick
      test_enumerate_clean_log;
    Alcotest.test_case "sampled enumeration is deterministic" `Quick
      test_sample_deterministic;
    Alcotest.test_case "sampled enumeration is bounded" `Quick
      test_sample_bounded_but_complete;
    Alcotest.test_case "sampling keeps the decisive points" `Quick
      test_sample_still_flags_p0;
    Alcotest.test_case "MV enumeration passes a versioned log" `Quick
      test_enumerate_mv_clean_log;
    Alcotest.test_case "MV sampling keeps every torn stamp" `Quick
      test_sample_mv_keeps_stamps;
    Alcotest.test_case "20 seeded runs recover at every crash point" `Slow
      test_stress_runs_recover_everywhere;
    Alcotest.test_case "20 seeded runs recover on the segmented disk WAL"
      `Slow test_stress_runs_recover_everywhere_segmented;
    Alcotest.test_case "20 seeded SNAPSHOT runs recover at every crash point"
      `Slow test_snapshot_runs_recover_everywhere;
    Alcotest.test_case "chaos drains clean" `Quick test_chaos_drains_clean;
    Alcotest.test_case "spurious failures retry to success" `Quick
      test_step_fail_aborts_and_retries;
    Alcotest.test_case "torn commits retry to success" `Quick
      test_torn_commit_retries;
    Alcotest.test_case "torn MV stamps retry to success" `Quick
      test_mv_torn_stamp_retries;
    Alcotest.test_case "deadline aborts gracefully" `Quick
      test_deadline_aborts_gracefully;
    Alcotest.test_case "generous deadline is silent" `Quick
      test_generous_deadline_silent;
    Alcotest.test_case "watchdog sees stalled workers" `Quick
      test_watchdog_sees_stalls;
    Alcotest.test_case "fault events reach the trace" `Quick
      test_fault_events_traced;
  ]
