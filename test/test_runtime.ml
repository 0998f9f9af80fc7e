(* The multicore runtime: pool, metrics, stripes, backoff and the
   serializability oracle, exercised with real Domain parallelism.

   Concurrency tests assert invariants that hold for *every*
   interleaving (the oracle verdict, value conservation, metrics
   accounting), never a specific schedule. The one probabilistic test —
   READ COMMITTED actually losing an update — retries over seeds, since
   any single parallel run may happen to serialize. *)

module Pool = Runtime.Pool
module Oracle = Runtime.Oracle
module Metrics = Runtime.Metrics
module Stripes = Runtime.Stripes
module Backoff = Runtime.Backoff
module Recorder = Runtime.Recorder
module Generators = Workload.Generators
module L = Isolation.Level
module Ph = Phenomena.Phenomenon

let accounts = 8
let initial_balance = 100

let stress_job ~level ~mix ~seed ~hot i =
  let p = Generators.stress_program mix ~seed ~accounts ~hot ~ops:4 ~index:i in
  Pool.job ~name:p.Core.Program.name ~level p

let run ~level ~mix ?(seed = 11) ?(workers = 4) ?(hot = 2) n =
  let cfg =
    Pool.config ~workers
      ~initial:(Generators.bank_accounts accounts)
      ~think_us:50. ~seed ()
  in
  Pool.run_n cfg ~txns:n ~gen:(stress_job ~level ~mix ~seed ~hot)

(* Committed increments of [k] recorded in the journal; under a correct
   engine the final balance must reflect exactly these. *)
let committed_incs journal k =
  List.length
    (List.filter
       (fun (e : Recorder.entry) ->
         e.outcome = Recorder.Committed && e.name = "inc:" ^ k)
       journal)

let check_conservation (r : Pool.result) =
  List.iter
    (fun (k, v) ->
      Alcotest.(check int)
        (Printf.sprintf "balance of %s = initial + committed increments" k)
        (initial_balance + committed_incs r.journal k)
        v)
    r.final

let test_serializable_hotspot () =
  let r = run ~level:L.Serializable ~mix:Generators.Hotspot 48 in
  Alcotest.(check bool) "history well-formed" true
    ((Option.get r.oracle).Oracle.well_formed = Ok ());
  Alcotest.(check bool) "2PL run is pattern-free" true
    (Oracle.pattern_free (Option.get r.oracle));
  Alcotest.(check int) "every job eventually commits" 48
    r.metrics.Metrics.committed;
  Alcotest.(check int) "no job gave up" 0 r.metrics.Metrics.giveups;
  check_conservation r;
  (* Journal and metrics agree on attempt accounting. *)
  let journal_commits =
    List.length
      (List.filter
         (fun (e : Recorder.entry) -> e.outcome = Recorder.Committed)
         r.journal)
  in
  Alcotest.(check int) "journal commits = metrics commits" journal_commits
    r.metrics.Metrics.committed

let test_snapshot_hotspot () =
  let r = run ~level:L.Snapshot ~mix:Generators.Hotspot 48 in
  Alcotest.(check bool) "SI run is anomaly-free" true (Oracle.clean (Option.get r.oracle));
  Alcotest.(check bool) "analyzed as multiversion" true
    (Option.get r.oracle).Oracle.multiversion;
  (* First-Committer-Wins means every committed increment survives. *)
  check_conservation r

let test_ssi_and_to_clean () =
  List.iter
    (fun level ->
      let r = run ~level ~mix:Generators.Hotspot 32 in
      Alcotest.(check bool)
        (L.name level ^ " promises serializability")
        true (Oracle.clean (Option.get r.oracle)))
    [ L.Serializable_snapshot; L.Timestamp_ordering ]

(* READ COMMITTED under a single hot key loses updates; the oracle must
   catch it in the recorded history. Any one run may serialize by luck,
   so hunt over seeds — failure needs every seed to dodge P4. *)
let test_read_committed_loses_updates () =
  let found =
    List.exists
      (fun seed ->
        let cfg =
          Pool.config ~workers:4
            ~initial:(Generators.bank_accounts accounts)
            ~think_us:100. ~seed
            ~oracle_phenomena:[ Ph.P4 ] ()
        in
        let r =
          Pool.run_n cfg ~txns:64
            ~gen:
              (stress_job ~level:L.Read_committed ~mix:Generators.Hotspot ~seed
                 ~hot:1)
        in
        List.mem_assoc Ph.P4 (Option.get r.Pool.oracle).Oracle.phenomena)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check bool) "P4 observed in at least one seed" true found

let test_run_for_deadline () =
  let gen i =
    let p =
      Generators.stress_program Generators.Transfer ~seed:3 ~accounts ~hot:2
        ~ops:4 ~index:i
    in
    Pool.job ~name:p.Core.Program.name ~level:L.Serializable p
  in
  let cfg =
    Pool.config ~workers:2
      ~initial:(Generators.bank_accounts accounts)
      ~think_us:20. ~seed:3 ()
  in
  let r = Pool.run_for cfg ~duration_s:0.05 ~gen in
  Alcotest.(check bool) "made progress" true (r.metrics.Metrics.committed > 0);
  Alcotest.(check bool) "well-formed" true
    ((Option.get r.oracle).Oracle.well_formed = Ok ());
  Alcotest.(check bool) "pattern-free" true (Oracle.pattern_free (Option.get r.oracle))

(* {2 One wait, one park}

   Two workers run the same job at SERIALIZABLE: write x, then three
   reads, with think gaps of mean 20ms before each later operation, so
   whichever worker takes X(x) first holds it for about 80ms. The other
   blocks on x once and parks until the holder commits. *)
let contended_pair ?watchdog_us () =
  let job _ =
    Pool.job ~level:L.Serializable
      (Core.Program.make ~name:"hold_x"
         Core.Program.[ Write ("x", const 1); Read "y"; Read "z"; Read "w" ])
  in
  let cfg =
    Pool.config ~workers:2
      ~initial:[ ("x", 0); ("y", 0); ("z", 0); ("w", 0) ]
      ~think_us:20_000. ?watchdog_us ()
  in
  Pool.run_n cfg ~txns:2 ~gen:job

(* One wait costs one park: a waiter woken on release re-steps once (a
   racing wake may cost one more), where a timer-polling waiter would
   block again on every poll across the holder's think gaps. *)
let test_one_wait_one_park () =
  let r = contended_pair () in
  let m = r.Pool.metrics in
  Alcotest.(check int) "both commit" 2 m.Metrics.committed;
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 blocked steps (saw %d)" m.Metrics.lock_waits)
    true (m.Metrics.lock_waits <= 2)

(* A worker parked on a lock wait, or thinking between operations, is
   idle: a watchdog threshold well below the holder's think gaps (and
   the waiter's park) reports no stuck worker. *)
let test_parked_worker_not_stuck () =
  let r = contended_pair ~watchdog_us:10_000. () in
  Alcotest.(check int) "both commit" 2 r.Pool.metrics.Metrics.committed;
  Alcotest.(check int) "no watchdog kicks" 0
    r.Pool.metrics.Metrics.watchdog_kicks

let test_stripes_counter_parallel () =
  let c = Stripes.Counter.create () in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Stripes.Counter.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "sharded counter sums exactly" (4 * per_domain)
    (Stripes.Counter.sum c)

let test_stripes_key_mapping () =
  let s = Stripes.create 8 in
  let i = Stripes.stripe_of_key s "acct_000" in
  Alcotest.(check int) "stable stripe for a key" i
    (Stripes.stripe_of_key s "acct_000");
  Alcotest.(check bool) "stripe in range" true (i >= 0 && i < Stripes.size s)

(* The restart window starts at 200µs and doubles to a 20ms cap, so five
   waits sleep at most 0.2 + 0.4 + 0.8 + 1.6 + 3.2 = 6.2ms. *)
let test_backoff_counts_and_caps () =
  let rng = Random.State.make [| 42 |] in
  let bo = Backoff.create ~rng () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 5 do
    Backoff.wait bo
  done;
  let five = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "wait count" 5 (Backoff.waits bo);
  Alcotest.(check bool) "five escalating waits stay short" true (five < 0.5);
  Backoff.reset bo;
  Backoff.wait bo;
  Alcotest.(check int) "count survives reset" 6 (Backoff.waits bo)

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.start m;
  Metrics.record_commit m ~latency_ns:1_000_000;
  Metrics.record_abort m Core.Engine.Deadlock_victim;
  Metrics.record_retry m;
  Metrics.stop m;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "one commit" 1 s.Metrics.committed;
  Alcotest.(check int) "one abort" 1 s.Metrics.aborted_total;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  let json = Metrics.to_json ~extra:[ ("level", "\"x\"") ] s in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " in JSON") true (contains json field))
    [ "committed"; "throughput"; "lat_p99_ms"; "deadlock_victim"; "level" ]

let suite =
  [
    Alcotest.test_case "serializable hotspot: pattern-free + conservation"
      `Quick test_serializable_hotspot;
    Alcotest.test_case "snapshot hotspot: clean + conservation" `Quick
      test_snapshot_hotspot;
    Alcotest.test_case "SSI and T/O stay clean" `Quick test_ssi_and_to_clean;
    Alcotest.test_case "read committed loses updates (oracle sees P4)" `Quick
      test_read_committed_loses_updates;
    Alcotest.test_case "run_for: deadline-bounded run" `Quick
      test_run_for_deadline;
    Alcotest.test_case "one wait costs one park" `Quick test_one_wait_one_park;
    Alcotest.test_case "a parked worker is not stuck" `Quick
      test_parked_worker_not_stuck;
    Alcotest.test_case "stripes: sharded counter is exact" `Quick
      test_stripes_counter_parallel;
    Alcotest.test_case "stripes: key mapping is stable" `Quick
      test_stripes_key_mapping;
    Alcotest.test_case "backoff: counts and reset" `Quick
      test_backoff_counts_and_caps;
    Alcotest.test_case "metrics: snapshot and JSON" `Quick test_metrics_json;
  ]
