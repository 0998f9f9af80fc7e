(* The tracing layer: ring-buffer flight recorder semantics, span
   reconstruction from hand-built event streams, the Chrome trace_event
   export (valid JSON, balanced B/E pairs, lossless round trip), and
   anomaly provenance — the oracle's witnesses mapped back onto the
   recorded interleaving of a real READ COMMITTED lost-update run. *)

module Event = Trace.Event
module Ring = Trace.Ring
module Sink = Trace.Sink
module Span = Trace.Span
module Chrome = Trace.Chrome
module Json = Trace.Json
module Render = Trace.Render
module Pool = Runtime.Pool
module Oracle = Runtime.Oracle
module Generators = Workload.Generators
module L = Isolation.Level
module Ph = Phenomena.Phenomenon

let mk ?(tid = 7) ?(worker = 2) ts kind =
  { Event.ts_ns = ts; tid; worker; kind }

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.record r (mk i Event.Commit)
  done;
  Alcotest.(check int) "written counts every record" 10 (Ring.written r);
  Alcotest.(check int) "dropped = written - capacity" 6 (Ring.dropped r);
  Alcotest.(check (list int)) "newest survive, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun (e : Event.t) -> e.ts_ns) (Ring.to_list r))

let test_ring_under_capacity () =
  let r = Ring.create ~capacity:8 in
  for i = 1 to 3 do
    Ring.record r (mk i Event.Commit)
  done;
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "all retained in order" [ 1; 2; 3 ]
    (List.map (fun (e : Event.t) -> e.ts_ns) (Ring.to_list r))

(* A hand-built committed attempt: one blocked step (with its lock wait),
   one successful step, commit. *)
let hand_built =
  [
    mk 0
      (Event.Attempt_begin
         { job = 3; name = "inc"; attempt = 2; level = "SERIALIZABLE" });
    mk 10 (Event.Step_begin { op = "read x" });
    mk 20
      (Event.Step_end
         { op = "read x"; outcome = Event.Blocked [ 9 ]; hpos0 = 5; hpos1 = 5 });
    mk 120 (Event.Lock_wait { slept_ns = 100 });
    mk 130 (Event.Step_begin { op = "read x" });
    mk 135 (Event.Lock_grant { req = "S(x)"; upgrade = false });
    mk 140
      (Event.Step_end
         { op = "read x"; outcome = Event.Progress; hpos0 = 5; hpos1 = 6 });
    mk 200 Event.Commit;
  ]

let test_span_reconstruction () =
  match Span.of_events hand_built with
  | [ s ] ->
    Alcotest.(check int) "tid" 7 s.Span.tid;
    Alcotest.(check int) "job" 3 s.Span.job;
    Alcotest.(check int) "attempt" 2 s.Span.attempt;
    Alcotest.(check string) "level" "SERIALIZABLE" s.Span.level;
    Alcotest.(check int) "worker" 2 s.Span.worker;
    Alcotest.(check bool) "committed" true (s.Span.outcome = Span.Committed);
    Alcotest.(check int) "steps include blocked tries" 2 s.Span.steps;
    Alcotest.(check int) "one blocked step" 1 s.Span.blocked_steps;
    Alcotest.(check int) "lock wait from the sleep event" 100
      s.Span.lock_wait_ns;
    Alcotest.(check int) "wall = finish - start" 200 (Span.wall_ns s);
    Alcotest.(check int) "exec = wall - lock wait" 100 (Span.exec_ns s)
  | spans ->
    Alcotest.failf "expected one span, got %d" (List.length spans)

let test_span_retry_overhead () =
  let failed =
    [
      mk ~tid:4 0
        (Event.Attempt_begin
           { job = 1; name = "inc"; attempt = 1; level = "SERIALIZABLE" });
      mk ~tid:4 50 (Event.Abort { reason = "deadlock_victim" });
      mk ~tid:4 60 (Event.Retry_backoff { slept_ns = 40; next_attempt = 2 });
      mk ~tid:5 100
        (Event.Attempt_begin
           { job = 1; name = "inc"; attempt = 2; level = "SERIALIZABLE" });
      mk ~tid:5 180 Event.Commit;
    ]
  in
  let spans = Span.of_events failed in
  Alcotest.(check int) "two attempts, two spans" 2 (List.length spans);
  (* The failed attempt's wall (50) plus its restart backoff (40); the
     committed attempt charges nothing. *)
  Alcotest.(check int) "retry overhead" 90 (Span.retry_overhead_ns spans);
  (match Span.find spans 4 with
  | Some s ->
    Alcotest.(check bool) "backoff does not extend the attempt" true
      (Span.wall_ns s = 50)
  | None -> Alcotest.fail "span for tid 4 missing")

let meta =
  Chrome.meta ~tool:"test" ~level:"SERIALIZABLE" ~mix:"hotspot" ~workers:2
    ~seed:1 ~history:"r1[x=1] c1" ()

let test_chrome_valid_json () =
  let s = Chrome.to_string meta hand_built in
  match Json.parse s with
  | Error e -> Alcotest.failf "export is not valid JSON: %a" Json.pp_error e
  | Ok (Json.List entries) ->
    (* Every B opened on a thread lane must be closed by an E. *)
    let opens = Hashtbl.create 8 in
    List.iter
      (fun entry ->
        let ph =
          Option.bind (Json.member "ph" entry) Json.to_string_opt
        and lane =
          ( Option.bind (Json.member "pid" entry) Json.to_int_opt,
            Option.bind (Json.member "tid" entry) Json.to_int_opt )
        in
        match ph with
        | Some "B" ->
          Hashtbl.replace opens lane
            (1 + Option.value ~default:0 (Hashtbl.find_opt opens lane))
        | Some "E" ->
          let depth = Option.value ~default:0 (Hashtbl.find_opt opens lane) in
          Alcotest.(check bool) "E closes an open B" true (depth > 0);
          Hashtbl.replace opens lane (depth - 1)
        | _ -> ())
      entries;
    Hashtbl.iter
      (fun _ depth ->
        Alcotest.(check int) "every B is closed" 0 depth)
      opens
  | Ok _ -> Alcotest.fail "export is not a JSON array"

let test_chrome_round_trip () =
  let s = Chrome.to_string meta hand_built in
  match Chrome.parse s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (m, events) ->
    Alcotest.(check string) "level survives" "SERIALIZABLE" m.Chrome.level;
    Alcotest.(check string) "history survives" "r1[x=1] c1" m.Chrome.history;
    Alcotest.(check int) "every event survives" (List.length hand_built)
      (List.length events);
    Alcotest.(check bool) "payloads survive" true
      (List.for_all2
         (fun (a : Event.t) (b : Event.t) ->
           a.tid = b.tid && a.worker = b.worker && a.kind = b.kind)
         hand_built events)

(* A real run: READ COMMITTED over one hot key loses updates; the trace
   must let us name the transactions behind the oracle's witness and find
   the wall-clock event for every witness position. Any single run may
   serialize by luck, so hunt over seeds. *)
let rc_lost_update_run () =
  let accounts = 8 in
  let rec hunt = function
    | [] -> None
    | seed :: rest ->
      let sink = Sink.create ~workers:4 () in
      let cfg =
        Pool.config ~workers:4
          ~initial:(Generators.bank_accounts accounts)
          ~think_us:100. ~seed ~oracle_phenomena:[ Ph.P4 ] ~trace:sink ()
      in
      let jobs =
        Array.init 64 (fun i ->
            let p =
              Generators.stress_program Generators.Hotspot ~seed ~accounts
                ~hot:1 ~ops:4 ~index:i
            in
            Pool.job ~name:p.Core.Program.name ~level:L.Read_committed p)
      in
      let r = Pool.run_n cfg ~txns:(Array.length jobs) ~gen:(Array.get jobs) in
      if (Option.get r.Pool.oracle).Oracle.witnesses <> [] then Some r else hunt rest
  in
  hunt [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_provenance_names_transactions () =
  match rc_lost_update_run () with
  | None -> Alcotest.fail "no seed produced a P4 witness"
  | Some r ->
    let w = List.hd (Option.get r.Pool.oracle).Oracle.witnesses in
    let out =
      Fmt.str "%a"
        (fun ppf w ->
          Render.provenance ~events:r.Pool.events ppf
            ~history:r.Pool.history w)
        w
    in
    let contains sub =
      let n = String.length out and m = String.length sub in
      let rec at i = i + m <= n && (String.sub out i m = sub || at (i + 1)) in
      at 0
    in
    (* The rendering must name the actual witness transactions and mark
       their operations. *)
    Alcotest.(check bool) "names the T1-role transaction" true
      (contains (Printf.sprintf "T%d" w.Phenomena.Detect.t1));
    Alcotest.(check bool) "names the T2-role transaction" true
      (contains (Printf.sprintf "T%d" w.Phenomena.Detect.t2));
    Alcotest.(check bool) "marks witness roles" true (contains "witness");
    Alcotest.(check bool) "shows dependency edges" true
      (contains "dependency edges");
    (* Every witness position maps back to the step event that emitted
       it, and that event belongs to the acting transaction. *)
    List.iter
      (fun pos ->
        match Render.event_at_position r.Pool.events pos with
        | None -> Alcotest.failf "no trace event covers position %d" pos
        | Some e ->
          let action = List.nth r.Pool.history pos in
          Alcotest.(check int)
            (Printf.sprintf "event at h%d belongs to the acting txn" pos)
            (History.Action.txn action) e.Event.tid)
      w.Phenomena.Detect.positions

let test_lock_table_upgrades () =
  let open Locking.Lock_table in
  let t = create () in
  let w k = Write_item { k; before = None; after = None } in
  ignore (acquire t ~owner:1 ~tag:Long (Read_item "x"));
  ignore (acquire t ~owner:2 ~tag:Long (Read_item "x"));
  (* Both readers now request the write: the canonical upgrade deadlock.
     Both requests are refused, and both must still count as upgrades. *)
  (match acquire t ~owner:1 ~tag:Long (w "x") with
  | Conflict holders -> Alcotest.(check (list int)) "blocked by T2" [ 2 ] holders
  | Granted -> Alcotest.fail "T1's upgrade should conflict with T2's S lock");
  (match acquire t ~owner:2 ~tag:Long (w "x") with
  | Conflict _ -> ()
  | Granted -> Alcotest.fail "T2's upgrade should conflict with T1's S lock");
  let s = stats t in
  Alcotest.(check int) "both refused upgrades counted" 2 s.upgrades;
  Alcotest.(check int) "both refusals counted" 2 s.conflicts;
  (* A write on a key the owner does not yet read-cover is not an
     upgrade. *)
  ignore (acquire t ~owner:1 ~tag:Long (w "y"));
  Alcotest.(check int) "fresh write is no upgrade" 2 (stats t).upgrades

let suite =
  [
    Alcotest.test_case "ring: wraparound keeps newest, counts dropped" `Quick
      test_ring_wraparound;
    Alcotest.test_case "ring: under capacity drops nothing" `Quick
      test_ring_under_capacity;
    Alcotest.test_case "span: reconstruction from hand-built events" `Quick
      test_span_reconstruction;
    Alcotest.test_case "span: retry overhead charges failed attempts" `Quick
      test_span_retry_overhead;
    Alcotest.test_case "chrome: export is valid JSON with balanced B/E"
      `Quick test_chrome_valid_json;
    Alcotest.test_case "chrome: lossless round trip" `Quick
      test_chrome_round_trip;
    Alcotest.test_case
      "provenance: READ COMMITTED lost update names its transactions" `Quick
      test_provenance_names_transactions;
    Alcotest.test_case "lock table: upgrade requests are counted" `Quick
      test_lock_table_upgrades;
  ]
