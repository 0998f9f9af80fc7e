(* The wire front-end, live over loopback: a real server (scheduler
   domains, reader/writer threads, striped engine) driven by real
   sockets. The tests pin the session semantics the protocol promises —
   per-session levels land in the journal, writes commit atomically,
   malformed frames error and close without hurting other connections,
   an abruptly vanished client's locks are released, draining rejects
   new transactions — and the two pool-level satellites: the stop-flag
   drain and certifier batching equivalence. *)

module Pool = Runtime.Pool
module Oracle = Runtime.Oracle
module Frontend = Server.Frontend
module Client = Server.Client
module Loadgen = Server.Loadgen
module P = Server.Protocol
module L = Isolation.Level
module Generators = Workload.Generators

(* Start a server on a free port, run [f port], stop, return
   (pool result, wire stats, f's result). *)
let with_server ?(workers = 2) ?(accounts = 16) ?(certify = false)
    ?(seed = 3) ?telemetry_port ?(telemetry_ready = fun _ -> ()) f =
  let stop = Atomic.make false in
  let port_box = Atomic.make 0 in
  let pool =
    Pool.config ~workers
      ~initial:(Generators.bank_accounts accounts)
      ~seed ~certify ()
  in
  let cfg =
    Frontend.config ~port:0
      ~on_ready:(fun p -> Atomic.set port_box p)
      ?telemetry_port ~telemetry_ready ~drain_grace_s:3.0 ~stop ~pool
      ~family:`Locking ()
  in
  let out = ref None in
  let server = Thread.create (fun () -> out := Some (Frontend.serve cfg)) () in
  let rec await n =
    if Atomic.get port_box = 0 then
      if n > 500 then Alcotest.fail "server never came up"
      else begin
        Thread.delay 0.01;
        await (n + 1)
      end
  in
  await 0;
  let x = f (Atomic.get port_box) in
  Atomic.set stop true;
  Thread.join server;
  match !out with
  | Some (r, stats) -> (r, stats, x)
  | None -> Alcotest.fail "server produced no result"

let ok_or_fail what = function
  | Ok P.Ok_resp -> ()
  | Ok resp -> Alcotest.failf "%s: unexpected %a" what P.pp_response resp
  | Error e -> Alcotest.failf "%s: %s" what e

(* {2 Per-session levels land in the journal} *)

let test_levels_honored () =
  let r, stats, () =
    with_server (fun port ->
        let cl = Client.connect ~host:"127.0.0.1" ~port in
        (* two sessions on one connection, different declared levels *)
        ok_or_fail "open 1" (Client.request cl ~sid:1 P.Open);
        ok_or_fail "open 2" (Client.request cl ~sid:2 P.Open);
        ok_or_fail "level 1" (Client.request cl ~sid:1 (P.Set_level "serializable"));
        ok_or_fail "level 2" (Client.request cl ~sid:2 (P.Set_level "repeatable read"));
        (* a cross-family level is accepted as the declared level and
           executes at its in-family strengthening; a misspelled one is
           still refused *)
        ok_or_fail "snapshot declared on locking family"
          (Client.request cl ~sid:1 (P.Set_level "snapshot"));
        ok_or_fail "back to serializable"
          (Client.request cl ~sid:1 (P.Set_level "serializable"));
        (match Client.request cl ~sid:1 (P.Set_level "snapshto") with
        | Ok (P.Error { code; _ }) when code = P.err_unknown -> ()
        | other ->
          Alcotest.failf "unknown level accepted: %s"
            (match other with
            | Ok resp -> Fmt.str "%a" P.pp_response resp
            | Error e -> e));
        let txn sid name =
          ok_or_fail "begin"
            (Client.request cl ~sid
               (P.Begin { read_only = false; attempt = 1; name }));
          (match Client.request cl ~sid (P.Read "acct_000") with
          | Ok (P.Value _) -> ()
          | _ -> Alcotest.fail "read failed");
          ok_or_fail "write" (Client.request cl ~sid (P.Write ("acct_000", 7)));
          match Client.request cl ~sid P.Commit with
          | Ok (P.Committed | P.Aborted _) -> ()
          | _ -> Alcotest.fail "commit failed"
        in
        txn 1 "ser_txn";
        txn 2 "rr_txn";
        ok_or_fail "close 1" (Client.request cl ~sid:1 P.Close);
        ok_or_fail "close 2" (Client.request cl ~sid:2 P.Close);
        Client.close cl)
  in
  Alcotest.(check int) "no protocol errors" 0 stats.Frontend.protocol_errors;
  let find name =
    match
      List.find_opt
        (fun e -> e.Runtime.Recorder.name = name)
        r.Pool.journal
    with
    | Some e -> e
    | None -> Alcotest.failf "journal entry %s missing" name
  in
  Alcotest.(check string)
    "declared SERIALIZABLE journaled" (L.name L.Serializable)
    (L.name (find "ser_txn").Runtime.Recorder.level);
  Alcotest.(check string)
    "declared REPEATABLE READ journaled" (L.name L.Repeatable_read)
    (L.name (find "rr_txn").Runtime.Recorder.level)

(* {2 Committed writes are visible to later transactions} *)

let test_write_then_read_back () =
  let r, _, () =
    with_server (fun port ->
        let cl = Client.connect ~host:"127.0.0.1" ~port in
        ok_or_fail "open" (Client.request cl ~sid:1 P.Open);
        ok_or_fail "begin"
          (Client.request cl ~sid:1
             (P.Begin { read_only = false; attempt = 1; name = "w" }));
        ok_or_fail "write" (Client.request cl ~sid:1 (P.Write ("acct_003", 321)));
        (match Client.request cl ~sid:1 P.Commit with
        | Ok P.Committed -> ()
        | _ -> Alcotest.fail "uncontended commit failed");
        ok_or_fail "begin 2"
          (Client.request cl ~sid:1
             (P.Begin { read_only = true; attempt = 1; name = "r" }));
        (match Client.request cl ~sid:1 (P.Read "acct_003") with
        | Ok (P.Value (Some 321)) -> ()
        | Ok resp -> Alcotest.failf "read back: %a" P.pp_response resp
        | Error e -> Alcotest.fail e);
        (match Client.request cl ~sid:1 P.Commit with
        | Ok P.Committed -> ()
        | _ -> Alcotest.fail "read-only commit failed");
        ok_or_fail "close" (Client.request cl ~sid:1 P.Close);
        Client.close cl)
  in
  match List.assoc_opt "acct_003" r.Pool.final with
  | Some 321 -> ()
  | _ -> Alcotest.fail "committed write missing from final state"

(* {2 Malformed frames: clean error, other connections unharmed} *)

let test_malformed_frame () =
  let _, stats, () =
    with_server (fun port ->
        (* connection 1 sends garbage after a valid open *)
        let bad = Client.connect ~host:"127.0.0.1" ~port in
        ok_or_fail "open" (Client.request bad ~sid:1 P.Open);
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let garbage = Bytes.make 13 '\xEE' in
        Bytes.set_int32_be garbage 0 9l (* valid length, junk payload *);
        let n = Unix.write fd garbage 0 13 in
        Alcotest.(check int) "wrote the frame" 13 n;
        (* the server answers with a malformed error, then closes *)
        let buf = Bytes.create 1024 in
        let got = Unix.read fd buf 0 1024 in
        Alcotest.(check bool) "an error frame came back" true (got > 4);
        let payload = Bytes.sub buf 4 (got - 4) in
        (match P.decode_response payload with
        | Ok (_, _, P.Error { code; _ }) ->
          Alcotest.(check int) "malformed error code" P.err_malformed code
        | other ->
          Alcotest.failf "expected malformed error, got %s"
            (match other with
            | Ok (_, _, resp) -> Fmt.str "%a" P.pp_response resp
            | Error e -> e));
        Alcotest.(check int) "then EOF" 0 (Unix.read fd buf 0 1024);
        Unix.close fd;
        (* the healthy connection still works *)
        ok_or_fail "begin after garbage"
          (Client.request bad ~sid:1
             (P.Begin { read_only = false; attempt = 1; name = "ok" }));
        (match Client.request bad ~sid:1 P.Commit with
        | Ok P.Committed -> ()
        | _ -> Alcotest.fail "healthy connection broken by the other's garbage");
        Client.close bad)
  in
  Alcotest.(check bool)
    "protocol error counted" true
    (stats.Frontend.protocol_errors >= 1)

(* {2 An abruptly vanished client releases its locks} *)

let test_disconnect_releases_locks () =
  let r, _, () =
    with_server (fun port ->
        (* session A takes a write lock and the client dies *)
        let a = Client.connect ~host:"127.0.0.1" ~port in
        ok_or_fail "open a" (Client.request a ~sid:1 P.Open);
        ok_or_fail "begin a"
          (Client.request a ~sid:1
             (P.Begin { read_only = false; attempt = 1; name = "orphan" }));
        ok_or_fail "write a" (Client.request a ~sid:1 (P.Write ("acct_001", 5)));
        Client.close a (* no COMMIT, no CLOSE: just gone *);
        (* session B needs the same lock; it must get through once the
           server reaps the orphan *)
        let b = Client.connect ~host:"127.0.0.1" ~port in
        ok_or_fail "open b" (Client.request b ~sid:1 P.Open);
        let rec attempt n =
          if n > 20 then Alcotest.fail "orphaned lock never released"
          else begin
            ok_or_fail "begin b"
              (Client.request b ~sid:1
                 (P.Begin { read_only = false; attempt = n; name = "survivor" }));
            ok_or_fail "write b"
              (Client.request b ~sid:1 (P.Write ("acct_001", 6)));
            match Client.request ~timeout_s:30.0 b ~sid:1 P.Commit with
            | Ok P.Committed -> ()
            | Ok (P.Aborted _) ->
              Thread.delay 0.05;
              attempt (n + 1)
            | _ -> Alcotest.fail "survivor commit errored"
          end
        in
        attempt 1;
        ok_or_fail "close b" (Client.request b ~sid:1 P.Close);
        Client.close b)
  in
  (* the orphan was aborted, not committed *)
  let orphan =
    List.find_opt (fun e -> e.Runtime.Recorder.name = "orphan") r.Pool.journal
  in
  (match orphan with
  | Some { Runtime.Recorder.outcome = Runtime.Recorder.Aborted _; _ } -> ()
  | Some _ -> Alcotest.fail "orphan committed?"
  | None -> Alcotest.fail "orphan never journaled");
  match List.assoc_opt "acct_001" r.Pool.final with
  | Some 6 -> ()
  | v ->
    Alcotest.failf "survivor's write lost (acct_001 = %s)"
      (match v with Some n -> string_of_int n | None -> "absent")

(* {2 Certified serving over the wire} *)

let test_certify_over_wire () =
  let r, stats, lg =
    with_server ~workers:4 ~accounts:8 ~certify:true (fun port ->
        Loadgen.run
          (Loadgen.config ~port ~sessions:24 ~txns_per_session:4
             ~mix:Generators.Hotspot ~accounts:8 ~hot:4
             ~levels:[ (L.Read_committed, 1.0) ]
             ~seed:5 ()))
  in
  Alcotest.(check int) "no wire protocol errors" 0 stats.Frontend.protocol_errors;
  Alcotest.(check int) "no client protocol errors" 0 lg.Loadgen.protocol_errors;
  Alcotest.(check bool) "some transactions committed" true (lg.Loadgen.committed > 0);
  Alcotest.(check bool)
    "committed projection serializable (certified, even at RC)" true
    (Option.get r.Pool.oracle).Oracle.serializable

(* {2 Live telemetry: STATS over the wire and the HTTP exposition} *)

let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path) in
  ignore (Unix.write fd req 0 (Bytes.length req));
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec read_all () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      read_all ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all ()
  in
  read_all ();
  Unix.close fd;
  Buffer.contents buf

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let test_telemetry_live () =
  let module W = Telemetry.Window in
  let module J = Trace.Json in
  let tport = Atomic.make 0 in
  let r, stats, (lg, final_committed, expo) =
    with_server ~workers:4 ~accounts:8 ~certify:true ~telemetry_port:0
      ~telemetry_ready:(fun p -> Atomic.set tport p)
      (fun port ->
        (* real load from a thread; scrape both endpoints mid-run *)
        let lg_out = ref None in
        let lg_thread =
          Thread.create
            (fun () ->
              lg_out :=
                Some
                  (Loadgen.run
                     (Loadgen.config ~port ~sessions:16 ~txns_per_session:6
                        ~mix:Generators.Hotspot ~accounts:8 ~hot:4
                        ~levels:
                          [ (L.Read_committed, 1.0); (L.Serializable, 1.0) ]
                        ~seed:7 ())))
            ()
        in
        let cl = Client.connect ~host:"127.0.0.1" ~port in
        let scrape () =
          match Client.request cl ~sid:0 P.Stats with
          | Ok (P.Stats_resp body) -> (
            match J.parse body with
            | Ok j -> j
            | Error e -> Alcotest.failf "STATS JSON: %a" J.pp_error e)
          | Ok resp -> Alcotest.failf "STATS: unexpected %a" P.pp_response resp
          | Error e -> Alcotest.failf "STATS: %s" e
        in
        let sample j =
          match Option.bind (J.member "metrics" j) W.of_json with
          | Some s -> s
          | None -> Alcotest.fail "STATS metrics member unparseable"
        in
        let s0 = sample (scrape ()) in
        Thread.delay 0.2;
        let j1 = scrape () in
        let s1 = sample j1 in
        Alcotest.(check bool)
          "live committed monotone over the wire" true
          (s1.W.committed >= s0.W.committed);
        (* the report carries the server-side sections too *)
        Alcotest.(check bool)
          "scheduler section present" true
          (J.member "scheduler" j1 <> None);
        Alcotest.(check bool)
          "certifier section present" true
          (J.member "certifier" j1 <> None);
        (* the HTTP exposition answers while the run is in flight *)
        let expo = http_get ~port:(Atomic.get tport) "/metrics" in
        Thread.join lg_thread;
        let lg = Option.get !lg_out in
        (* after the load has fully drained, the live counter has
           caught up with the client's own count exactly: a COMMITTED
           reply is sent only after the commit is recorded *)
        let sf = sample (scrape ()) in
        Client.close cl;
        (lg, sf.W.committed, expo))
  in
  Alcotest.(check int) "no wire protocol errors" 0 stats.Frontend.protocol_errors;
  Alcotest.(check int) "no client protocol errors" 0 lg.Loadgen.protocol_errors;
  Alcotest.(check bool) "some transactions committed" true
    (lg.Loadgen.committed > 0);
  Alcotest.(check int)
    "post-drain STATS committed matches loadgen" lg.Loadgen.committed
    final_committed;
  Alcotest.(check int)
    "final result metrics agree" lg.Loadgen.committed
    r.Pool.metrics.Runtime.Metrics.committed;
  (* exposition shape: an HTTP 200 carrying the known families *)
  Alcotest.(check bool) "HTTP 200" true (contains expo "HTTP/1.0 200 OK");
  Alcotest.(check bool) "content type" true
    (contains expo "text/plain; version=0.0.4");
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " present") true (contains expo family))
    [
      "# TYPE isolation_lab_committed_total counter";
      "# TYPE isolation_lab_throughput_tps gauge";
      "isolation_lab_certifier_graph_nodes";
      "isolation_lab_scheduler_sessions_active";
      "isolation_lab_server_conns_total";
    ]

(* {2 Draining rejects new transactions} *)

let test_draining_rejects () =
  let stop = Atomic.make false in
  let port_box = Atomic.make 0 in
  let pool =
    Pool.config ~workers:2 ~initial:(Generators.bank_accounts 8) ~seed:9 ()
  in
  let cfg =
    Frontend.config ~port:0
      ~on_ready:(fun p -> Atomic.set port_box p)
      ~drain_grace_s:2.0 ~stop ~pool ~family:`Locking ()
  in
  let out = ref None in
  let server = Thread.create (fun () -> out := Some (Frontend.serve cfg)) () in
  let rec await n =
    if Atomic.get port_box = 0 then
      if n > 500 then Alcotest.fail "server never came up"
      else begin
        Thread.delay 0.01;
        await (n + 1)
      end
  in
  await 0;
  let cl = Client.connect ~host:"127.0.0.1" ~port:(Atomic.get port_box) in
  ok_or_fail "open" (Client.request cl ~sid:1 P.Open);
  (* commit one transaction while the server is healthy *)
  ok_or_fail "begin"
    (Client.request cl ~sid:1 (P.Begin { read_only = false; attempt = 1; name = "pre" }));
  (match Client.request cl ~sid:1 P.Commit with
  | Ok P.Committed -> ()
  | _ -> Alcotest.fail "healthy commit failed");
  (* flip the drain flag; the accept loop notices within its 100ms poll *)
  Atomic.set stop true;
  Thread.delay 0.3;
  (match Client.request cl ~sid:1 (P.Begin { read_only = false; attempt = 1; name = "late" })
   with
  | Ok (P.Error { code; _ }) when code = P.err_draining -> ()
  | Ok resp ->
    Alcotest.failf "BEGIN while draining: %a (wanted DRAINING error)"
      P.pp_response resp
  | Error _ -> () (* connection already severed: also a valid drain *));
  Client.close cl;
  Thread.join server;
  match !out with
  | Some (r, _) ->
    Alcotest.(check bool)
      "pre-drain txn journaled" true
      (List.exists (fun e -> e.Runtime.Recorder.name = "pre") r.Pool.journal)
  | None -> Alcotest.fail "server produced no result"

(* {2 Pool drain flag (batch runner)} *)

let test_pool_stop_drains () =
  let stop = Atomic.make false in
  let cfg =
    Pool.config ~workers:4
      ~initial:(Generators.bank_accounts 8)
      ~think_us:500. ~seed:13 ~stop ()
  in
  let gen i =
    let p =
      Generators.stress_program Generators.Hotspot ~seed:13 ~accounts:8 ~hot:2
        ~ops:4 ~index:i
    in
    Pool.job ~name:p.Core.Program.name ~level:L.Read_committed p
  in
  let stopper =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Atomic.set stop true)
      ()
  in
  (* far more work than 50ms can finish: the run must return early,
     complete (journal) every attempt it started, and stay checkable *)
  let r = Pool.run_n cfg ~txns:5000 ~gen in
  Thread.join stopper;
  let m = r.Pool.metrics in
  let done_ =
    m.Runtime.Metrics.committed + m.Runtime.Metrics.aborted_total
  in
  Alcotest.(check bool) "drained early (not all 5000 ran)" true (done_ < 5000);
  Alcotest.(check bool) "made some progress first" true (done_ > 0);
  Alcotest.(check bool)
    "history well-formed after drain" true
    (match (Option.get r.Pool.oracle).Oracle.well_formed with
    | Ok () -> true
    | Error _ -> false)

(* {2 Certifier batching equivalence} *)

let test_certify_batch_equivalent () =
  (* single worker: identical schedules, so batched and inline feeds
     must produce identical certifier accounting, not just verdicts *)
  let run ~certify_batch =
    let cfg =
      Pool.config ~workers:1
        ~initial:(Generators.bank_accounts 8)
        ~seed:21 ~certify:true ~certify_batch ()
    in
    let gen i =
      let p =
        Generators.stress_program Generators.Mixed ~seed:21 ~accounts:8 ~hot:4
          ~ops:5 ~index:i
      in
      Pool.job ~name:p.Core.Program.name ~level:L.Read_committed p
    in
    Pool.run_n cfg ~txns:64 ~gen
  in
  let a = run ~certify_batch:true and b = run ~certify_batch:false in
  let s r =
    match r.Pool.certifier with
    | Some s -> s
    | None -> Alcotest.fail "certifier summary missing"
  in
  let sa = s a and sb = s b in
  Alcotest.(check bool) "batched serializable" true sa.Runtime.Certifier.serializable;
  Alcotest.(check bool) "inline serializable" true sb.Runtime.Certifier.serializable;
  Alcotest.(check int)
    "same wr edges" sa.Runtime.Certifier.edges_wr sb.Runtime.Certifier.edges_wr;
  Alcotest.(check int)
    "same ww edges" sa.Runtime.Certifier.edges_ww sb.Runtime.Certifier.edges_ww;
  Alcotest.(check int)
    "same rw edges" sa.Runtime.Certifier.edges_rw sb.Runtime.Certifier.edges_rw;
  Alcotest.(check int)
    "same dooms" sa.Runtime.Certifier.dooms sb.Runtime.Certifier.dooms

(* {2 The scheduler's kick}

   One worker domain and hand-written pumps, so every state transition
   is driven by the test. *)

module Scheduler = Server.Scheduler

let await ?(timeout_s = 5.) what cond =
  let deadline = Unix.gettimeofday () +. timeout_s in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what;
    Thread.delay 0.001
  done

let with_scheduler f =
  let sched = Scheduler.create ~workers:1 ~attach:ignore in
  Fun.protect ~finally:(fun () -> Scheduler.stop sched) (fun () -> f sched)

(* A task that parks on its first pump and goes idle on later ones. *)
let parking_task () =
  let pumps = Atomic.make 0 in
  let task =
    Scheduler.task (fun ~worker:_ ->
        if Atomic.fetch_and_add pumps 1 = 0 then `Park else `Idle)
  in
  (task, pumps)

let test_kick_resumes_parked () =
  with_scheduler (fun sched ->
      let task, pumps = parking_task () in
      Scheduler.wake sched task;
      await "the park" (fun () -> (Scheduler.gauges sched).Scheduler.parked = 1);
      (* input does not resume a parked task: its blocked step comes first *)
      Scheduler.wake sched task;
      Thread.delay 0.02;
      Alcotest.(check int) "still parked after input" 1 (Atomic.get pumps);
      Scheduler.kick sched task;
      await "the kicked pump" (fun () -> Atomic.get pumps = 2);
      await "idle" (fun () -> Scheduler.active sched = 0);
      Alcotest.(check int) "nothing parked" 0 (Scheduler.gauges sched).Scheduler.parked;
      (* a kick on an idle task does nothing *)
      Scheduler.kick sched task;
      Thread.delay 0.02;
      Alcotest.(check int) "idle kick: no pump" 2 (Atomic.get pumps);
      Alcotest.(check int) "idle kick: still idle" 0 (Scheduler.active sched))

let test_kick_during_pump () =
  with_scheduler (fun sched ->
      (* The pump is kicked after its step blocked but before it reports
         [`Park] — what a holder finishing on another domain does. The
         park must turn into a requeue, not a sleep nobody ends. *)
      let self = ref None in
      let pumps = Atomic.make 0 in
      let task =
        Scheduler.task (fun ~worker:_ ->
            if Atomic.fetch_and_add pumps 1 = 0 then begin
              Scheduler.kick sched (Option.get !self);
              `Park
            end
            else `Idle)
      in
      self := Some task;
      Scheduler.wake sched task;
      await "the requeued pump" (fun () -> Atomic.get pumps = 2);
      await "idle" (fun () -> Scheduler.active sched = 0);
      Alcotest.(check int) "nothing parked" 0 (Scheduler.gauges sched).Scheduler.parked)

let test_parked_gauge () =
  with_scheduler (fun sched ->
      let parked, parked_pumps = parking_task () in
      Scheduler.wake sched parked;
      await "the park" (fun () -> (Scheduler.gauges sched).Scheduler.parked = 1);
      (* occupy the only worker, then queue a third task behind it *)
      let release = Atomic.make false and running = Atomic.make false in
      let busy =
        Scheduler.task (fun ~worker:_ ->
            Atomic.set running true;
            while not (Atomic.get release) do Thread.delay 0.001 done;
            `Idle)
      in
      let queued, queued_pumps = parking_task () in
      Scheduler.wake sched busy;
      await "the busy pump" (fun () -> Atomic.get running);
      Scheduler.wake sched queued;
      let g = Scheduler.gauges sched in
      (* free the worker before checking, so a failure cannot wedge it *)
      Atomic.set release true;
      Alcotest.(check int) "parked counts the parked task only" 1 g.Scheduler.parked;
      Alcotest.(check int) "runnable counts the queued task" 1 g.Scheduler.runnable;
      Alcotest.(check int) "all three active" 3 g.Scheduler.active_tasks;
      await "the queued task parks" (fun () -> Atomic.get queued_pumps = 1);
      await "two parked" (fun () -> (Scheduler.gauges sched).Scheduler.parked = 2);
      Scheduler.kick sched parked;
      Scheduler.kick sched queued;
      await "idle" (fun () -> Scheduler.active sched = 0);
      Alcotest.(check int) "both resumed once" 4
        (Atomic.get parked_pumps + Atomic.get queued_pumps);
      Alcotest.(check int) "nothing parked" 0 (Scheduler.gauges sched).Scheduler.parked)

(* {2 Wake on release over the wire}

   A blocked request parks untimed, so each test bounds every reply with
   a timeout: a lost wakeup fails the test instead of hanging it. *)

let timeout_s = 5.

let begin_txn cl name =
  ok_or_fail ("begin " ^ name)
    (Client.request ~timeout_s cl ~sid:1
       (P.Begin { read_only = false; attempt = 1; name }))

let write cl k v =
  ok_or_fail ("write " ^ k) (Client.request ~timeout_s cl ~sid:1 (P.Write (k, v)))

let expect_reply what cl ~req pred =
  match Client.recv ~timeout_s cl with
  | Ok (Some (1, r, resp)) when r = req && pred resp -> ()
  | Ok (Some (_, _, resp)) -> Alcotest.failf "%s: unexpected %a" what P.pp_response resp
  | Ok None -> Alcotest.failf "%s: no reply (lost wakeup?)" what
  | Error e -> Alcotest.failf "%s: %s" what e

let expect_commit what cl =
  match Client.request ~timeout_s cl ~sid:1 P.Commit with
  | Ok P.Committed -> ()
  | Ok resp -> Alcotest.failf "%s: unexpected %a" what P.pp_response resp
  | Error e -> Alcotest.failf "%s: %s" what e

let is_deadlock_abort = function P.Aborted "deadlock_victim" -> true | _ -> false

(* Poll STATS until [n] sessions are parked: the request under test has
   blocked and published its wait. *)
let await_parked cl n =
  let needle = Printf.sprintf {|"parked":%d,|} n in
  await "a parked session" (fun () ->
      match Client.request ~timeout_s cl ~sid:0 P.Stats with
      | Ok (P.Stats_resp body) -> contains body needle
      | _ -> false)

(* Two clients, one session each, opened in order: transaction ids follow
   BEGIN order, so the first client's transaction is the older one. *)
let with_two_sessions f =
  with_server (fun port ->
      let a = Client.connect ~host:"127.0.0.1" ~port in
      let b = Client.connect ~host:"127.0.0.1" ~port in
      ok_or_fail "open a" (Client.request a ~sid:1 P.Open);
      ok_or_fail "open b" (Client.request b ~sid:1 P.Open);
      f a b;
      ok_or_fail "close a" (Client.request a ~sid:1 P.Close);
      ok_or_fail "close b" (Client.request b ~sid:1 P.Close);
      Client.close a;
      Client.close b)

let test_release_wakes_waiter () =
  let r, _, () =
    with_two_sessions (fun a b ->
        begin_txn a "holder";
        write a "acct_001" 500;
        begin_txn b "waiter";
        let req = Client.send b ~sid:1 (P.Read "acct_001") in
        (* the holder progresses while the reader is parked on its lock:
           progress releases nothing, so it must not wake the reader *)
        await_parked a 1;
        write a "acct_002" 7;
        expect_commit "holder" a;
        expect_reply "the parked read" b ~req (function
          | P.Value (Some 500) -> true
          | _ -> false);
        expect_commit "waiter" b)
  in
  match r.Pool.lock_stats with
  | Some s ->
    Alcotest.(check int)
      "the read conflicted once, then waited for the release" 1
      s.Locking.Lock_table.conflicts
  | None -> Alcotest.fail "no lock stats"

let test_deadlock_requester_victim () =
  ignore
    (with_two_sessions (fun a b ->
        begin_txn a "older";
        begin_txn b "younger";
        write a "acct_001" 1;
        write b "acct_002" 2;
        (* the older waits on the younger ... *)
        let req = Client.send a ~sid:1 (P.Write ("acct_002", 1)) in
        await_parked b 1;
        (* ... whose request closes the cycle: it is the victim *)
        (match Client.request ~timeout_s b ~sid:1 (P.Write ("acct_001", 2)) with
        | Ok resp when is_deadlock_abort resp -> ()
        | Ok resp -> Alcotest.failf "requester: unexpected %a" P.pp_response resp
        | Error e -> Alcotest.failf "requester: %s" e);
        expect_reply "the survivor's parked write" a ~req (( = ) P.Ok_resp);
        expect_commit "survivor" a))

let test_deadlock_parked_victim () =
  ignore
    (with_two_sessions (fun a b ->
        begin_txn a "older";
        begin_txn b "younger";
        write a "acct_001" 1;
        write b "acct_002" 2;
        (* the younger waits on the older and parks ... *)
        let req = Client.send b ~sid:1 (P.Write ("acct_001", 2)) in
        await_parked a 1;
        (* ... the older closes the cycle; the parked younger is the victim
           and must be woken to learn it, while the requester, whose
           closing wait was never stored, must be retried at once *)
        write a "acct_002" 1;
        expect_reply "the parked victim" b ~req is_deadlock_abort;
        expect_commit "survivor" a))

let suite =
  [
    Alcotest.test_case "per-session levels land in the journal" `Slow
      test_levels_honored;
    Alcotest.test_case "committed writes read back over the wire" `Slow
      test_write_then_read_back;
    Alcotest.test_case "malformed frame: clean error, isolation" `Slow
      test_malformed_frame;
    Alcotest.test_case "abrupt disconnect releases locks" `Slow
      test_disconnect_releases_locks;
    Alcotest.test_case "certified serving over the wire" `Slow
      test_certify_over_wire;
    Alcotest.test_case "live telemetry: STATS and the HTTP exposition" `Slow
      test_telemetry_live;
    Alcotest.test_case "draining rejects new transactions" `Slow
      test_draining_rejects;
    Alcotest.test_case "pool stop flag drains the batch runner" `Slow
      test_pool_stop_drains;
    Alcotest.test_case "certifier batching is accounting-equivalent" `Quick
      test_certify_batch_equivalent;
    Alcotest.test_case "scheduler: kick resumes a parked task only" `Quick
      test_kick_resumes_parked;
    Alcotest.test_case "scheduler: kick during a pump requeues its park" `Quick
      test_kick_during_pump;
    Alcotest.test_case "scheduler: the parked gauge counts parked tasks" `Quick
      test_parked_gauge;
    Alcotest.test_case "a release wakes the parked reader once" `Slow
      test_release_wakes_waiter;
    Alcotest.test_case "deadlock: the requester is the victim" `Slow
      test_deadlock_requester_victim;
    Alcotest.test_case "deadlock: the parked member is the victim" `Slow
      test_deadlock_parked_victim;
  ]
