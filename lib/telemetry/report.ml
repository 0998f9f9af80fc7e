(* The assembled live report: everything one scrape of a running system
   says, in one value with two renderings (the STATS JSON object and
   the Prometheus exposition).

   Layering: this module depends only on the runtime, so the server
   front-end can *fill in* its own gauges (connection counts, scheduler
   occupancy) through plain-int records without a dependency cycle —
   the runtime side arrives as {!Runtime.Pool.live}. *)

module Metrics = Runtime.Metrics
module Pool = Runtime.Pool
module Certifier = Runtime.Certifier

type scheduler = {
  runnable : int;       (* sessions queued for a worker right now *)
  parked : int;         (* sessions parked on a blocked operation *)
  sessions_active : int; (* sessions registered and not closed *)
  wakes : int;          (* cumulative ready-queue pops *)
  wake_wait_mean_us : float; (* mean enqueue-to-run latency *)
  wake_wait_max_us : float;
}

type server = {
  conns : int;
  sessions : int;
  frames : int;
  protocol_errors : int;
  disconnects : int;
  draining : bool;
}

type t = {
  live : Pool.live;
  scheduler : scheduler option;
  server : server option;
}

let make ?scheduler ?server live = { live; scheduler; server }

(* {2 Section encoders}

   One encoder per section, shared by the STATS reply below and the
   final run report ({!final_json}), so the two never drift apart. *)

let locks_json ~stripes (s : Locking.Lock_table.stats) =
  Printf.sprintf
    {|{"grants":%d,"conflicts":%d,"releases":%d,"upgrades":%d,"stripes":%d}|}
    s.grants s.conflicts s.releases s.upgrades stripes

let wal_json (w : Storage.Wal.stats) =
  let hist =
    String.concat ","
      (List.map
         (fun (le, n) -> Printf.sprintf {|"%d":%d|} le n)
         w.Storage.Wal.w_batch_hist)
  in
  Printf.sprintf
    {|{"records":%d,"segments":%d,"disk_bytes":%d,"syncs":%d,"checkpoints":%d,"truncated_segments":%d,"batch_hist":{%s}}|}
    w.Storage.Wal.w_records w.Storage.Wal.w_segments
    w.Storage.Wal.w_disk_bytes w.Storage.Wal.w_syncs
    w.Storage.Wal.w_checkpoints w.Storage.Wal.w_truncated_segments hist

let server_json s =
  Printf.sprintf
    {|{"conns":%d,"sessions":%d,"frames":%d,"protocol_errors":%d,"disconnects":%d,"draining":%b}|}
    s.conns s.sessions s.frames s.protocol_errors s.disconnects s.draining

(* {2 JSON} *)

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf {|{"at":%.6f|} t.live.Pool.at);
  Buffer.add_string b ",\"metrics\":";
  Buffer.add_string b (Metrics.to_json t.live.Pool.metrics);
  (match t.live.Pool.certifier with
  | None -> ()
  | Some (s : Certifier.stats) ->
    Buffer.add_string b
      (Printf.sprintf
         {|,"certifier":{"nodes":%d,"edges":%d,"queue":%d,"pending":%d,"dep_edges":{"wr":%d,"ww":%d,"rw":%d},"cycles":%d,"dooms":%d,"misses":%d,"tolerated":%d,"prune":{"passes":%d,"nodes":%d,"eras":%d}}|}
         s.s_nodes s.s_edges s.s_queue s.s_pending s.s_edges_wr s.s_edges_ww
         s.s_edges_rw s.s_cycles s.s_dooms s.s_misses s.s_tolerated
         s.s_prune_passes s.s_pruned_nodes s.s_pruned_eras));
  Option.iter
    (fun s ->
      Buffer.add_string b ",\"locks\":";
      Buffer.add_string b (locks_json ~stripes:t.live.Pool.lock_stripes s))
    t.live.Pool.lock_stats;
  Buffer.add_string b
    (Printf.sprintf {|,"wal_entries":%d,"history_len":%d|}
       t.live.Pool.wal_entries t.live.Pool.history_len);
  Option.iter
    (fun w ->
      Buffer.add_string b ",\"wal\":";
      Buffer.add_string b (wal_json w))
    t.live.Pool.wal_stats;
  (match t.scheduler with
  | None -> ()
  | Some s ->
    Buffer.add_string b
      (Printf.sprintf
         {|,"scheduler":{"runnable":%d,"parked":%d,"sessions_active":%d,"wakes":%d,"wake_wait_mean_us":%.1f,"wake_wait_max_us":%.1f}|}
         s.runnable s.parked s.sessions_active s.wakes s.wake_wait_mean_us
         s.wake_wait_max_us));
  Option.iter
    (fun s ->
      Buffer.add_string b ",\"server\":";
      Buffer.add_string b (server_json s))
    t.server;
  Buffer.add_char b '}';
  Buffer.contents b

(* {2 Prometheus exposition} *)

let fi n = float_of_int n

let to_prometheus t =
  let p = Prometheus.create () in
  let m = t.live.Pool.metrics in
  Prometheus.counter p ~help:"Committed transactions"
    "isolation_lab_committed_total" [ ([], fi m.committed) ];
  Prometheus.counter p ~help:"Aborted transaction attempts by reason"
    "isolation_lab_aborted_total"
    (List.map
       (fun (r, n) -> ([ ("reason", Metrics.abort_reason_slug r) ], fi n))
       m.aborted);
  Prometheus.counter p "isolation_lab_retries_total" [ ([], fi m.retries) ];
  Prometheus.counter p "isolation_lab_giveups_total" [ ([], fi m.giveups) ];
  Prometheus.counter p "isolation_lab_deadlocks_total"
    [ ([], fi m.deadlocks) ];
  Prometheus.counter p "isolation_lab_stalls_total" [ ([], fi m.stalls) ];
  Prometheus.counter p ~help:"Blocked step attempts (lock waits)"
    "isolation_lab_lock_waits_total" [ ([], fi m.lock_waits) ];
  Prometheus.counter p ~help:"Transactions doomed by the online certifier"
    "isolation_lab_certifier_dooms_total" [ ([], fi m.certifier_aborts) ];
  if m.per_level <> [] then begin
    let level ls = [ ("level", Isolation.Level.slug ls.Metrics.level) ] in
    Prometheus.counter p ~help:"Commits by isolation level"
      "isolation_lab_level_committed_total"
      (List.map (fun ls -> (level ls, fi ls.Metrics.l_committed)) m.per_level);
    Prometheus.counter p ~help:"Aborts by isolation level"
      "isolation_lab_level_aborted_total"
      (List.map (fun ls -> (level ls, fi ls.Metrics.l_aborted)) m.per_level);
    Prometheus.counter p ~help:"Certifier dooms by isolation level"
      "isolation_lab_level_doomed_total"
      (List.map (fun ls -> (level ls, fi ls.Metrics.l_doomed)) m.per_level)
  end;
  Prometheus.gauge p ~help:"Committed per second since start"
    "isolation_lab_throughput_tps" [ ([], m.throughput) ];
  Prometheus.gauge p ~help:"Commit latency quantiles (lifetime)"
    "isolation_lab_latency_ms"
    [
      ([ ("quantile", "0.5") ], m.lat_p50_ms);
      ([ ("quantile", "0.9") ], m.lat_p90_ms);
      ([ ("quantile", "0.99") ], m.lat_p99_ms);
    ];
  Prometheus.counter p ~help:"Recorded history actions"
    "isolation_lab_history_actions_total"
    [ ([], fi t.live.Pool.history_len) ];
  Prometheus.counter p ~help:"WAL records written"
    "isolation_lab_wal_records_total" [ ([], fi t.live.Pool.wal_entries) ];
  (match t.live.Pool.wal_stats with
  | None -> ()
  | Some (w : Storage.Wal.stats) ->
    Prometheus.gauge p ~help:"Live WAL segment files"
      "isolation_lab_wal_segments" [ ([], fi w.Storage.Wal.w_segments) ];
    Prometheus.gauge p ~help:"Bytes across live WAL segments"
      "isolation_lab_wal_disk_bytes" [ ([], fi w.Storage.Wal.w_disk_bytes) ];
    Prometheus.counter p ~help:"Group-commit fsync batches"
      "isolation_lab_wal_syncs_total" [ ([], fi w.Storage.Wal.w_syncs) ];
    Prometheus.counter p ~help:"WAL checkpoints taken"
      "isolation_lab_wal_checkpoints_total"
      [ ([], fi w.Storage.Wal.w_checkpoints) ];
    Prometheus.counter p ~help:"Segments unlinked below checkpoints"
      "isolation_lab_wal_truncated_segments_total"
      [ ([], fi w.Storage.Wal.w_truncated_segments) ];
    if w.Storage.Wal.w_batch_hist <> [] then
      Prometheus.counter p
        ~help:"Group-commit fsyncs by commit-batch-size bucket"
        "isolation_lab_wal_commit_batches_total"
        (List.map
           (fun (le, n) -> ([ ("size_le", string_of_int le) ], fi n))
           w.Storage.Wal.w_batch_hist));
  (match t.live.Pool.lock_stats with
  | None -> ()
  | Some (s : Locking.Lock_table.stats) ->
    Prometheus.counter p "isolation_lab_lock_grants_total"
      [ ([], fi s.grants) ];
    Prometheus.counter p "isolation_lab_lock_conflicts_total"
      [ ([], fi s.conflicts) ];
    Prometheus.counter p "isolation_lab_lock_releases_total"
      [ ([], fi s.releases) ];
    Prometheus.counter p "isolation_lab_lock_upgrades_total"
      [ ([], fi s.upgrades) ];
    Prometheus.gauge p ~help:"Key stripes backing the lock table"
      "isolation_lab_lock_stripes" [ ([], fi t.live.Pool.lock_stripes) ]);
  (match t.live.Pool.certifier with
  | None -> ()
  | Some (s : Certifier.stats) ->
    Prometheus.gauge p ~help:"Certifier dependency-graph size"
      "isolation_lab_certifier_graph_nodes" [ ([], fi s.s_nodes) ];
    Prometheus.gauge p "isolation_lab_certifier_graph_edges"
      [ ([], fi s.s_edges) ];
    Prometheus.gauge p ~help:"Batched actions awaiting graph work"
      "isolation_lab_certifier_queue_depth" [ ([], fi s.s_queue) ];
    Prometheus.counter p ~help:"Dependency edges inserted by kind"
      "isolation_lab_certifier_edges_total"
      [
        ([ ("kind", "wr") ], fi s.s_edges_wr);
        ([ ("kind", "ww") ], fi s.s_edges_ww);
        ([ ("kind", "rw") ], fi s.s_edges_rw);
      ];
    Prometheus.counter p "isolation_lab_certifier_cycles_total"
      [ ([], fi s.s_cycles) ];
    Prometheus.counter p ~help:"Cycles with no active member left to doom"
      "isolation_lab_certifier_misses_total" [ ([], fi s.s_misses) ];
    Prometheus.counter p
      ~help:
        "Cycles every member's declared level permits (mixed criterion only)"
      "isolation_lab_certifier_tolerated_total" [ ([], fi s.s_tolerated) ];
    Prometheus.counter p ~help:"Era-pruning passes run"
      "isolation_lab_certifier_prune_passes_total"
      [ ([], fi s.s_prune_passes) ];
    Prometheus.counter p ~help:"Committed nodes retired by era pruning"
      "isolation_lab_certifier_pruned_nodes_total"
      [ ([], fi s.s_pruned_nodes) ];
    Prometheus.counter p ~help:"Settled era-stack entries trimmed"
      "isolation_lab_certifier_pruned_eras_total"
      [ ([], fi s.s_pruned_eras) ]);
  (match t.scheduler with
  | None -> ()
  | Some s ->
    Prometheus.gauge p ~help:"Sessions queued for a worker"
      "isolation_lab_scheduler_runnable" [ ([], fi s.runnable) ];
    Prometheus.gauge p ~help:"Sessions parked on a blocked operation"
      "isolation_lab_scheduler_parked" [ ([], fi s.parked) ];
    Prometheus.gauge p "isolation_lab_scheduler_sessions_active"
      [ ([], fi s.sessions_active) ];
    Prometheus.counter p ~help:"Ready-queue pops"
      "isolation_lab_scheduler_wakes_total" [ ([], fi s.wakes) ];
    Prometheus.gauge p ~help:"Enqueue-to-run latency"
      "isolation_lab_scheduler_wake_wait_us"
      [
        ([ ("stat", "mean") ], s.wake_wait_mean_us);
        ([ ("stat", "max") ], s.wake_wait_max_us);
      ]);
  (match t.server with
  | None -> ()
  | Some s ->
    Prometheus.counter p "isolation_lab_server_conns_total"
      [ ([], fi s.conns) ];
    Prometheus.counter p "isolation_lab_server_sessions_total"
      [ ([], fi s.sessions) ];
    Prometheus.counter p "isolation_lab_server_frames_total"
      [ ([], fi s.frames) ];
    Prometheus.counter p "isolation_lab_server_protocol_errors_total"
      [ ([], fi s.protocol_errors) ];
    Prometheus.counter p ~help:"Injected connection severs"
      "isolation_lab_server_disconnects_total" [ ([], fi s.disconnects) ];
    Prometheus.gauge p ~help:"1 while draining"
      "isolation_lab_server_draining"
      [ ([], if s.draining then 1. else 0.) ]);
  Prometheus.to_string p

(* {2 The final run report}

   What [stress] and [serve] print, write and exit on after a run: one
   text rendering, one JSON object and one verdict over a
   {!Runtime.Pool.result}. The commands add only their header fields and
   their own sections (stress's fault checks, serve's front-end
   counters). *)

module Oracle = Runtime.Oracle
module L = Isolation.Level

let oracle_verdict o =
  if Oracle.pattern_free o then "CLEAN (no anomalies, no phenomenon patterns)"
  else if Oracle.clean o then
    "CLEAN (serializable; pattern templates admitted, as a non-locking \
     scheduler may)"
  else if Oracle.anomalies o = [] then
    "NOT SERIALIZABLE (dependency cycle outside the named anomaly templates)"
  else "ANOMALIES DETECTED"

let pp_final ~memory ppf (r : Pool.result) =
  Fmt.pf ppf "%a@." Metrics.pp r.metrics;
  Option.iter
    (fun (s : Locking.Lock_table.stats) ->
      Fmt.pf ppf "lock table: %d grants, %d conflicts, %d releases, %d upgrades@."
        s.grants s.conflicts s.releases s.upgrades)
    r.lock_stats;
  Fmt.pf ppf "memory: %a@." Runtime.Sysmem.pp memory;
  (match Option.map Storage.Wal.stats r.wal with
  | Some w when w.Storage.Wal.w_syncs > 0 || w.Storage.Wal.w_checkpoints > 0 ->
    Fmt.pf ppf
      "wal: %d live records, %d segments (%d bytes on disk), %d fsync \
       batches, %d checkpoints, %d segments truncated@."
      w.Storage.Wal.w_records w.Storage.Wal.w_segments
      w.Storage.Wal.w_disk_bytes w.Storage.Wal.w_syncs
      w.Storage.Wal.w_checkpoints w.Storage.Wal.w_truncated_segments
  | _ -> ());
  (match r.oracle with
  | None ->
    Fmt.pf ppf
      "oracle: skipped (no history kept; the online certifier carries the \
       verdict)@."
  | Some o -> Fmt.pf ppf "%a@.oracle verdict: %s@." Oracle.pp o (oracle_verdict o));
  Option.iter (Fmt.pf ppf "%a@." Oracle.pp_mixed) r.mixed;
  Option.iter
    (fun (s : Certifier.summary) ->
      Fmt.pf ppf "%a@." Certifier.pp_summary s;
      List.iteri
        (fun i v -> if i < 5 then Fmt.pf ppf "  %a@." Certifier.pp_violation v)
        s.violations)
    r.certifier

let final_json ?(header = []) ?(sections = []) ~memory (r : Pool.result) =
  let fields =
    List.map (fun (k, v) -> (k, Some (Trace.Json.to_string v))) header
    @ [
        ("metrics", Some (Metrics.to_json r.metrics));
        ("memory", Some (Runtime.Sysmem.to_json memory));
        ("locks", Option.map (locks_json ~stripes:r.lock_stripes) r.lock_stats);
        ("wal", Option.map (fun w -> wal_json (Storage.Wal.stats w)) r.wal);
        ("oracle", Option.map Oracle.to_json r.oracle);
        ("mixed", Option.map Oracle.mixed_to_json r.mixed);
        ("certifier", Option.map Certifier.to_json r.certifier);
      ]
    @ List.map (fun (k, v) -> (k, Some v)) sections
  in
  "{"
  ^ String.concat ","
      (List.filter_map
         (fun (k, v) -> Option.map (Printf.sprintf "%S:%s" k) v)
         fields)
  ^ "}"

(* Levels that promise serializability turn the oracle into an
   assertion: a dirty history is an engine bug, not a workload fact. 2PL
   SERIALIZABLE must be pattern-free — locking prevents the very
   templates; SSI and T/O admit patterns but must show no anomaly. A
   certified run (a certifier summary is present) adds its own promise
   at any level: the committed projection must come back acyclic —
   judged by the certifier's finalized verdict, exact whether or not a
   history was kept, and by the oracle's when one was. Under the mixed
   criterion the promise is [mixed_ok] — every transaction got the
   protection its declared level demands — not global serializability. *)
let verdict ?promised (r : Pool.result) =
  let oracle_ok =
    match (promised, r.oracle) with
    | Some L.Serializable, Some o -> Oracle.pattern_free o
    | Some (L.Serializable_snapshot | L.Timestamp_ordering), Some o ->
      Oracle.clean o
    | _ -> true
  in
  let certify_ok =
    match r.certifier with
    | None -> true
    | Some s -> (
      match s.criterion with
      | Certifier.Mixed -> s.mixed_ok
      | Certifier.Serializability ->
        s.serializable
        && Option.fold ~none:true ~some:(fun o -> o.Oracle.serializable) r.oracle)
  in
  oracle_ok && certify_ok

let write_trace path ~tool ~level ~mix ~workers ~seed ?events
    (r : Pool.result) =
  let events = Option.value ~default:r.events events in
  let meta =
    Trace.Chrome.meta ~tool ~level ~mix ~workers ~seed
      ~history:(Trace.Render.history_line r.history)
      ~dropped:r.events_dropped ()
  in
  Trace.Chrome.write_file path meta events;
  Format.printf "trace: %d events (%d dropped) written to %s@."
    (List.length events) r.events_dropped path
