(* The telemetry layer: Window's interval arithmetic against real
   Metrics recording (the delta of two snapshots must equal what was
   recorded between them), monotonicity of live snapshots under
   concurrent recording domains, the STATS JSON round trip
   (Metrics.to_json -> Trace.Json.parse -> Window.of_json), the
   Prometheus writer's output shape, and the final run report's shared
   schema and exit verdict. *)

module Metrics = Runtime.Metrics
module W = Telemetry.Window
module L = Isolation.Level
module J = Trace.Json

let reason = Core.Engine.Deadlock_victim

(* {2 Window.delta of two real snapshots} *)

let test_delta_matches_recording () =
  let m = Metrics.create () in
  Metrics.start m;
  Metrics.record_commit ~level:L.Serializable m ~latency_ns:1_000_000;
  Metrics.record_abort ~level:L.Serializable m reason;
  let s0 = W.of_snapshot (Metrics.snapshot m) in
  (* the interval under test: 3 commits, 2 aborts, 1 doom, 1 retry *)
  Metrics.record_commit ~level:L.Serializable m ~latency_ns:2_000_000;
  Metrics.record_commit ~level:L.Serializable m ~latency_ns:2_000_000;
  Metrics.record_commit ~level:L.Read_committed m ~latency_ns:4_000_000;
  Metrics.record_abort ~level:L.Read_committed m reason;
  Metrics.record_abort ~level:L.Read_committed m Core.Engine.Certifier_abort;
  Metrics.record_certifier_abort ~level:L.Read_committed m;
  Metrics.record_retry m;
  let s1 = W.of_snapshot (Metrics.snapshot m) in
  let r = W.delta s0 s1 in
  Alcotest.(check int) "interval commits" 3 r.W.d_committed;
  Alcotest.(check int) "interval aborts" 2 r.W.d_aborted;
  Alcotest.(check int) "interval retries" 1 r.W.d_retries;
  Alcotest.(check int) "interval dooms" 1 r.W.d_certifier_aborts;
  Alcotest.(check (list (pair string int)))
    "interval abort mix"
    (List.sort compare
       [
         (Metrics.abort_reason_slug reason, 1);
         (Metrics.abort_reason_slug Core.Engine.Certifier_abort, 1);
       ])
    (List.sort compare r.W.d_aborted_by);
  Alcotest.(check (list (triple string int int)))
    "per-level interval (committed, aborted)"
    [ ("read_committed", 1, 2); ("serializable", 2, 0) ]
    (List.sort compare
       (List.map (fun (s, c, a, _) -> (s, c, a)) r.W.d_per_level));
  (* the interval histogram holds exactly the interval's 3 commits, and
     its quantiles land near the recorded latencies (log2 buckets) *)
  Alcotest.(check bool) "interval p50 in [1, 4]ms" true
    (r.W.lat_p50_ms >= 1.0 && r.W.lat_p50_ms <= 4.0);
  Alcotest.(check bool) "interval p99 in [2, 8]ms" true
    (r.W.lat_p99_ms >= 2.0 && r.W.lat_p99_ms <= 8.0);
  (* an empty interval deltas to zero, not noise *)
  let r0 = W.delta s1 (W.of_snapshot (Metrics.snapshot m)) in
  Alcotest.(check int) "empty interval commits" 0 r0.W.d_committed;
  Alcotest.(check int) "empty interval aborts" 0 r0.W.d_aborted;
  Alcotest.(check (list (pair string int)))
    "empty interval abort mix" [] r0.W.d_aborted_by

(* {2 Monotone live reads under concurrent recording} *)

let test_monotone_under_concurrency () =
  let m = Metrics.create () in
  Metrics.start m;
  let per_domain = 20_000 in
  let running = Atomic.make 4 in
  (* Writers hold at this gate until the reader has taken its first live
     snapshot, so at least one reader check provably races them — the
     un-gated version flaked when all four domains finished before the
     reader's first look at [running]. *)
  let go = Atomic.make false in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            for i = 1 to per_domain do
              if i land 1 = 0 then
                Metrics.record_commit ~level:L.Snapshot m
                  ~latency_ns:((i land 0xFF) * 1000)
              else Metrics.record_abort ~level:L.Snapshot m reason;
              if d = 0 && i land 63 = 0 then Metrics.record_retry m
            done;
            Atomic.decr running))
  in
  (* reader side: every counter must be monotone between consecutive
     live snapshots, and no read may tear *)
  let prev = ref (W.of_snapshot (Metrics.snapshot m)) in
  let checks = ref 0 in
  Atomic.set go true;
  while Atomic.get running > 0 do
    let s = W.of_snapshot (Metrics.snapshot m) in
    let p = !prev in
    if s.W.committed < p.W.committed then
      Alcotest.failf "committed went backwards: %d -> %d" p.W.committed
        s.W.committed;
    if s.W.aborted < p.W.aborted then
      Alcotest.failf "aborted went backwards: %d -> %d" p.W.aborted s.W.aborted;
    if s.W.retries < p.W.retries then
      Alcotest.failf "retries went backwards: %d -> %d" p.W.retries s.W.retries;
    Array.iteri
      (fun i n ->
        if Array.length p.W.lat_hist > i && n < p.W.lat_hist.(i) then
          Alcotest.failf "lat_hist.(%d) went backwards" i)
      s.W.lat_hist;
    incr checks;
    prev := s
  done;
  List.iter Domain.join domains;
  Alcotest.(check bool) "reader actually raced the writers" true (!checks > 0);
  (* quiescent snapshot is exact *)
  let s = W.of_snapshot (Metrics.snapshot m) in
  Alcotest.(check int) "final commits" (4 * per_domain / 2) s.W.committed;
  Alcotest.(check int) "final aborts" (4 * per_domain / 2) s.W.aborted;
  Alcotest.(check int)
    "histogram holds every commit"
    (4 * per_domain / 2)
    (Array.fold_left ( + ) 0 s.W.lat_hist)

(* {2 JSON round trip} *)

let test_of_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.start m;
  Metrics.record_commit ~level:L.Serializable m ~latency_ns:3_000_000;
  Metrics.record_commit m ~latency_ns:500_000;
  Metrics.record_abort ~level:L.Serializable m reason;
  Metrics.record_retry m;
  Metrics.record_giveup m;
  Metrics.record_deadlock m;
  Metrics.record_certifier_abort ~level:L.Serializable m;
  Metrics.stop m;
  let snap = Metrics.snapshot m in
  let direct = W.of_snapshot snap in
  let j =
    match J.parse (Metrics.to_json snap) with
    | Ok j -> j
    | Error e -> Alcotest.failf "metrics JSON did not parse: %a" J.pp_error e
  in
  let parsed =
    match W.of_json j with
    | Some s -> s
    | None -> Alcotest.fail "Window.of_json rejected Metrics.to_json"
  in
  Alcotest.(check (float 1e-6)) "at survives" direct.W.at parsed.W.at;
  Alcotest.(check int) "committed survives" direct.W.committed
    parsed.W.committed;
  Alcotest.(check int) "aborted survives" direct.W.aborted parsed.W.aborted;
  Alcotest.(check int) "retries survive" direct.W.retries parsed.W.retries;
  Alcotest.(check int) "giveups survive" direct.W.giveups parsed.W.giveups;
  Alcotest.(check int) "deadlocks survive" direct.W.deadlocks
    parsed.W.deadlocks;
  Alcotest.(check int) "dooms survive" direct.W.certifier_aborts
    parsed.W.certifier_aborts;
  Alcotest.(check (list (pair string int)))
    "abort mix survives"
    (List.sort compare direct.W.aborted_by)
    (List.sort compare parsed.W.aborted_by);
  Alcotest.(check bool) "per-level survives" true
    (List.sort compare direct.W.per_level
    = List.sort compare parsed.W.per_level);
  Alcotest.(check bool) "histogram survives" true
    (direct.W.lat_hist = parsed.W.lat_hist);
  (* a malformed object (no taken_at) is None, not an exception *)
  Alcotest.(check bool) "missing taken_at rejected" true
    (W.of_json (J.Obj [ ("committed", J.Int 3) ]) = None)

(* {2 Prometheus writer} *)

let test_prometheus_shape () =
  let p = Telemetry.Prometheus.create () in
  Telemetry.Prometheus.counter p ~help:"Committed transactions" "lab_commits"
    [ ([], 42.) ];
  Telemetry.Prometheus.counter p "lab_aborts"
    [
      ([ ("reason", "deadlock") ], 7.);
      ([ ("reason", "weird\"quote\\and\nnewline") ], 1.);
    ];
  Telemetry.Prometheus.gauge p "lab_queue" [ ([], 3.5) ];
  let out = Telemetry.Prometheus.to_string p in
  let has needle =
    Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle) true
      (let n = String.length needle and m = String.length out in
       let rec at i = i + n <= m && (String.sub out i n = needle || at (i + 1)) in
       at 0)
  in
  has "# HELP lab_commits Committed transactions\n";
  has "# TYPE lab_commits counter\n";
  has "lab_commits 42\n";
  has "# TYPE lab_aborts counter\n";
  has "lab_aborts{reason=\"deadlock\"} 7\n";
  (* label escaping: backslash, quote and newline *)
  has "lab_aborts{reason=\"weird\\\"quote\\\\and\\nnewline\"} 1\n";
  has "# TYPE lab_queue gauge\n";
  has "lab_queue 3.5\n"

(* {2 The final run report} *)

let parse_or_fail what json =
  match J.parse json with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s did not parse: %a" what J.pp_error e

let section_keys what name j =
  match J.member name j with
  | Some (J.Obj kvs) -> List.sort compare (List.map fst kvs)
  | _ -> Alcotest.failf "%s has no %S object" what name

(* A small certified locking run, with one live STATS reading taken as
   the run starts. *)
let certified_run () =
  let live = ref None in
  let cfg =
    Runtime.Pool.config ~workers:2
      ~initial:(Workload.Generators.bank_accounts 8)
      ~think_us:0. ~seed:3 ~certify:true ()
  in
  let gen i =
    Runtime.Pool.job ~level:L.Serializable
      (Workload.Generators.stress_program Workload.Generators.Transfer ~seed:3
         ~accounts:8 ~hot:8 ~ops:4 ~index:i)
  in
  let r =
    Runtime.Pool.run_n cfg ~txns:24 ~gen ~monitor:(fun sample ->
        live := Some (sample ()))
  in
  (r, Option.get !live)

let test_final_json_shares_stats_schema () =
  let r, live = certified_run () in
  let final =
    parse_or_fail "final report"
      (Telemetry.Report.final_json ~memory:(Runtime.Sysmem.read ()) r
         ~header:[ ("txns", J.Int 24) ])
  in
  let stats =
    parse_or_fail "STATS reply"
      (Telemetry.Report.to_json (Telemetry.Report.make live))
  in
  Alcotest.(check (option int)) "header field" (Some 24)
    (Option.bind (J.member "txns" final) J.to_int_opt);
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s keys match STATS" name)
        (section_keys "STATS" name stats)
        (section_keys "final report" name final))
    [ "locks"; "wal" ];
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "final report has %s" name)
        true
        (J.member name final <> None))
    [ "metrics"; "memory"; "oracle"; "certifier" ]

let test_verdict_follows_certifier () =
  let r, _ = certified_run () in
  Alcotest.(check bool) "certified serializable run passes" true
    (Telemetry.Report.verdict ~promised:L.Serializable r);
  let s = Option.get r.Runtime.Pool.certifier in
  let flipped =
    {
      r with
      Runtime.Pool.certifier =
        Some { s with Runtime.Certifier.serializable = false };
    }
  in
  Alcotest.(check bool) "a non-serializable certifier verdict fails" false
    (Telemetry.Report.verdict flipped)

let suite =
  [
    Alcotest.test_case "window delta matches the interval's recording" `Quick
      test_delta_matches_recording;
    Alcotest.test_case "live snapshots are monotone under concurrency" `Quick
      test_monotone_under_concurrency;
    Alcotest.test_case "sample survives the STATS JSON round trip" `Quick
      test_of_json_roundtrip;
    Alcotest.test_case "prometheus exposition shape and escaping" `Quick
      test_prometheus_shape;
    Alcotest.test_case "final report parses and shares STATS sections" `Quick
      test_final_json_shares_stats_schema;
    Alcotest.test_case "verdict rejects a non-serializable certifier" `Quick
      test_verdict_follows_certifier;
  ]
