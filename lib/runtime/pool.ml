(* The Domain-parallel worker pool.

   Concurrency architecture, from the inside out:

   - One engine instance, executed under *striped* mutual exclusion: a
     stripe set of [n] key stripes (mutexes indexed by {!Storage.Shard}
     key hash) plus one dedicated predicate stripe, ordered last. Before
     an engine step the worker asks the engine for the op's footprint
     ({!Core.Engine.footprint}) and acquires exactly the stripes it
     names, in ascending index order — so point reads and writes of keys
     in different shards run concurrently, while scans, commits, aborts
     and everything the engine cannot localize acquire every stripe,
     which excludes every other step. Ascending acquisition makes
     the stripe mutexes themselves deadlock-free; the ordering "key
     stripe then predicate stripe" falls out because the predicate
     stripe has the highest index.

     Correctness invariants: every step holds at least one stripe; any
     all-stripes holder (commit, abort, scan, the deadlock detector)
     therefore excludes every step. Conflicting operations touch a
     common key or the predicate bucket, so their stripe sets intersect
     and they are totally ordered by a mutex — which is why the recorded
     history orders every pair of conflicting actions exactly as they
     executed. Non-conflicting actions may be recorded in either order;
     both orders are correct linearizations.

     The single-threaded multiversion and timestamp engines, and a
     locking engine stepped by one worker, degenerate the set to one
     key stripe with every footprint forced to All: every step, and
     every all-stripes holder, takes stripe 0 alone, a single latch on
     the same code path. A lone stepping thread never contends, so it
     skips the footprint work.

   - Workers never sleep while holding a stripe. A step that comes back
     [Blocked] releases its stripes and its caller waits until the wake it
     registered at begin fires: a batch worker parks on its own
     semaphore, a server session parks its task. One transaction's lock
     wait costs only its own worker, and ends when the holder terminates.

   - The waits-for graph is a {!Graph.Incremental}: a blocked step
     publishes its edges while still holding the step's stripes, and the
     incremental topological order rejects — and reports, with its
     witness — the exact edge insertion that would close a cycle. There
     is no snapshot-and-scan detector pass any more: detection costs
     nothing on the (overwhelmingly common) acyclic insertions, and a
     deadlock is known the instant the closing wait is published. The
     reporting worker then takes the detector mutex plus every stripe,
     re-checks that the witness path still stands (edges can go
     conservatively stale between a holder's release and the waiter's
     next poll — as under a single latch, where a broken "cycle" of
     that kind also costs one innocent restart), and aborts
     the youngest (highest-id) member, possibly the transaction of
     another worker. The victim's worker observes the abort on its next
     step ([Finished]) and restarts the job under a fresh transaction
     id. The closing edge itself is never stored, so a surviving
     deadlock is re-reported by the blocked waiter's next poll.

   - The waits-for graph is also the wait queue: a transaction's
     in-neighbours are exactly the transactions blocked on it. Every
     transaction registers a wake callback at begin and is woken when
     one of them terminates, when it is chosen as a deadlock victim, or
     when the certifier dooms it.

   - With [certify = true] the same incremental structure, in a second
     instance, certifies serializability online: every recorded action
     feeds the {!Certifier} through the engine trace hook, and the
     transaction whose action closes a dependency cycle is doomed on the
     spot. Workers poll {!Certifier.doomed} before each operation and
     abort the victim ([Certifier_abort]). Only the commit's poll waits
     for the certifier; the others read the published doom set when
     another worker holds it, so certification overlaps execution and
     the committed projection still stays acyclic — anomalies are
     certified away, not merely observed.

   - One step path and one wait rule: every transaction, a batch
     worker's job, a server session's or a scripted schedule's, runs
     through the step interface ([exec_begin], [exec_step],
     [exec_finish]), which also owns the starvation valve. The batch
     runner parks its worker on a blocked step; the server parks the
     session and serves others; the deterministic driver ({!Executor})
     retries the step when its schedule next names the transaction.

   - Job dispatch is a lock-free ticket: Atomic.fetch_and_add over the
     job generator's indices.

   Transaction ids are globally fresh (an atomic counter), so a retried
   job appears in the history as a new transaction and the recorded
   trace stays well-formed: an aborted attempt terminates with its own
   abort action and never acts again. *)

module Action = History.Action
module Level = Isolation.Level
module Engine = Core.Engine
module Program = Core.Program
module Waits = Graph.Incremental

type job = {
  name : string;
  program : Program.t;
  level : Level.t;      (* execution level, constrained to the engine family *)
  declared : Level.t;   (* the level the client asked for — the mixed
                           criterion judges this transaction against it *)
  read_only : bool;
}

let job ?(name = "txn") ?(read_only = false) ?declared ~level program =
  let declared = Option.value declared ~default:level in
  { name; program; level; declared; read_only }

type config = {
  workers : int;
  initial : (Action.key * Action.value) list;
  predicates : Storage.Predicate.t list;
  family : [ `Locking | `Mv | `Timestamp ] option;
  first_updater_wins : bool;
  stripes : int;
  think_us : float;
  oracle_phenomena : Phenomena.Phenomenon.t list;
  seed : int;
  trace : Trace.Sink.t option;
  fault : Fault.Plan.t option;   (* seeded fault plan; None = no injection *)
  deadline_us : float option;    (* per-attempt budget; abort + retry past it *)
  watchdog_us : float option;    (* stuck-worker threshold; None = no watchdog *)
  certify : bool;                (* online certification: doom cycle closers *)
  criterion : Certifier.criterion; (* what the certifier certifies *)
  levels : Level.t list;         (* declared level mix, for family inference *)
  prune_every : int;             (* certifier era-pruning cadence; 0 = off *)
  wal_dir : string option;       (* segmented on-disk WAL; None = in-memory *)
  wal_segment_bytes : int option;(* segment rotation threshold *)
  checkpoint_every : int;        (* commits between WAL checkpoints; 0 = never *)
  keep_history : bool;           (* false: no trace, no journal, no oracle *)
  stop : bool Atomic.t option;   (* drain flag: finish in-flight, take no new jobs *)
}

(* Attempt budget per batch job. *)
let max_attempts = 64

(* The starvation valve: an operation that has blocked this many times
   and blocks again restarts its transaction instead of waiting on. *)
let max_op_retries = 10_000

let default_stripes = 16

let config ?(workers = 4) ?(initial = []) ?(predicates = []) ?family
    ?(first_updater_wins = false) ?(stripes = default_stripes) ?coarse:_
    ?(think_us = 0.)
    ?(oracle_phenomena = Phenomena.Phenomenon.all) ?oracle_window:_ ?(seed = 1)
    ?trace ?fault ?deadline_us ?watchdog_us ?(certify = false)
    ?(criterion = Certifier.Serializability) ?(levels = [])
    ?certify_batch:_ ?(prune_every = 4096) ?wal_dir ?wal_segment_bytes
    ?(checkpoint_every = 0) ?(keep_history = true)
    ?spill_dir:_ ?stop () =
  {
    workers = max 1 workers;
    initial;
    predicates;
    family;
    first_updater_wins;
    stripes = max 1 stripes;
    think_us = Float.max 0. think_us;
    oracle_phenomena;
    seed;
    trace;
    fault;
    deadline_us;
    watchdog_us;
    certify;
    criterion;
    levels;
    prune_every = max 0 prune_every;
    wal_dir;
    wal_segment_bytes;
    checkpoint_every = max 0 checkpoint_every;
    keep_history;
    stop;
  }

type live = {
  at : float;
  metrics : Metrics.snapshot;
  certifier : Certifier.stats option;
  lock_stats : Locking.Lock_table.stats option;
  lock_stripes : int;
  wal_entries : int;
  wal_stats : Storage.Wal.stats option;
  history_len : int;
}

type result = {
  history : History.t;
  final : (Action.key * Action.value) list;
  metrics : Metrics.snapshot;
  journal : Recorder.entry list;
  oracle : Oracle.t option;
  mixed : Oracle.mixed option; (* per-victim verdict, under the Mixed criterion *)
  certifier : Certifier.summary option; (* online verdict, when certifying *)
  lock_stats : Locking.Lock_table.stats option;
  lock_stripes : int;
  events : Trace.Event.t list;
  events_dropped : int;
  wal : Storage.Wal.t option; (* the locking engine's log, for crash replay *)
}

exception Stuck of string

(* Wake callbacks by tid, registered at begin and dropped at finish. The
   mutex is a leaf, held only around the table, never around a call. *)
type wakes = { wm : Mutex.t; by_tid : (int, unit -> unit) Hashtbl.t }

let wake_tid w tid =
  Mutex.lock w.wm;
  let f = Hashtbl.find_opt w.by_tid tid in
  Mutex.unlock w.wm;
  Option.iter (fun f -> f ()) f

type shared = {
  engine : Engine.t;
  stripes : Stripes.t; (* nstripes key stripes + 1 predicate stripe *)
  nstripes : int;      (* key stripes; the predicate stripe is index nstripes *)
  all : int list;      (* the plan that excludes every step: every stripe,
                          or stripe 0 alone when every step takes it *)
  striped : bool;      (* false: every step takes the All plan *)
  serial_aux : bool;   (* begin/status need the full stripe set (Mv/TO) *)
  waits : Waits.t;     (* the incremental waits-for graph *)
  wakes : wakes;       (* per-tid wake callbacks of open transactions *)
  certifier : Certifier.t option;
  detector : Mutex.t;  (* one confirm-and-break pass at a time *)
  next_tid : int Atomic.t;
  metrics : Metrics.t;
  recorder : Recorder.t option; (* the attempt journal; None without history *)
  sink : Trace.Sink.t option;
  (* Per-worker heartbeats for the watchdog: the stamp of the worker's
     last step entry (0 = not started, max_int = idle: thinking, parked
     or done), and the tid it is currently running — read by the
     watchdog domain, written only by the owning worker, and stamped
     only when a watchdog runs. *)
  watched : bool;
  hb : int Atomic.t array;
  hb_tid : int Atomic.t array;
}

let emit sh ~tid kind =
  match sh.sink with None -> () | Some s -> Trace.Sink.emit s ~tid kind

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* {2 Stripe plans}

   A plan is the ascending list of stripe indices a step acquires. Key
   stripes are [0 .. stripes - 1]; the predicate stripe is [stripes],
   deliberately the highest index so "key stripes, then the predicate
   stripe" is just ascending order. The empty-keys footprint still
   claims stripe 0: every step must hold at least one stripe, or
   all-stripes holders could not exclude it. *)
let stripe_plan ~stripes (fp : Engine.footprint) =
  match fp with
  | Engine.All -> List.init (stripes + 1) Fun.id
  | Engine.Keys { keys; pred } ->
    let ks =
      List.sort_uniq compare
        (List.map (fun k -> Storage.Shard.of_key ~shards:stripes k) keys)
    in
    let plan = if pred then ks @ [ stripes ] else ks in
    (match plan with [] -> [ 0 ] | plan -> plan)

let all_plan sh = sh.all

let plan_for sh tid op =
  if sh.striped then
    stripe_plan ~stripes:sh.nstripes (Engine.footprint sh.engine tid op)
  else all_plan sh

(* The serial engines' latch (every stripe, every step) guards critical
   sections shorter than a futex round trip, so a contended acquire spins
   briefly before it parks; striped plans park at once. *)
let serial_spin = 200

let acquire_plan sh ~tid plan =
  let spin = if sh.serial_aux then serial_spin else 0 in
  List.iter
    (fun i ->
      let contended = Stripes.acquire ~spin sh.stripes i in
      Metrics.record_stripe_acquire sh.metrics i ~contended;
      if contended && sh.sink <> None then
        emit sh ~tid (Trace.Event.Stripe_wait { stripe = i }))
    plan

let release_plan sh plan = List.iter (fun i -> Stripes.release sh.stripes i) plan

(* {2 The incremental waits-for graph}

   Publishing is [remove_out_edges] + one [add_edge] per holder, all
   under the step's stripes; the incremental topological order makes the
   acyclic case O(1) amortised and *rejects* the edge that would close a
   cycle, handing back the witness path [holder -> ... -> tid]. The
   rejected closing edge is deliberately not stored: if the deadlock
   survives the break attempt, the blocked waiter's next poll re-reports
   it against the re-published edges.

   Progress removes only the transaction's out-edges (its now-satisfied
   waits); its in-edges are the waiters still queued on it. [retire]
   removes the node and wakes those waiters. It runs only once the
   transaction has terminated — its commit or abort ran under every
   stripe — so no waiter publishes an edge to it afterwards: a
   terminated transaction holds nothing, and the engine never reports it
   as a holder. *)

let set_waiting sh tid holders =
  Waits.remove_out_edges sh.waits tid;
  List.fold_left
    (fun acc h ->
      match Waits.add_edge sh.waits tid h with
      | `Ok | `Exists -> acc
      | `Cycle path -> (match acc with None -> Some path | some -> some))
    None holders

let retire sh tid =
  let waiters = Waits.preds sh.waits tid in
  Waits.remove_node sh.waits tid;
  List.iter (wake_tid sh.wakes) waiters

(* Break the deadlock whose witness [path] ([holder; ...; tid], closed
   by the rejected edge [tid -> holder]) was just reported to this
   worker. Under the detector mutex and every stripe no step is in
   flight; if each witness edge still stands (a holder releasing
   between our publish and now dissolves the cycle — conservatively
   stale edges can still cost one innocent restart, exactly as under
   the retired snapshot detector), abort the youngest member and wake it
   and its waiters. Either way the caller's closing edge was never
   stored, so nothing would wake it: it retries at once. *)
let break_deadlock sh tid path =
  Mutex.lock sh.detector;
  let plan = all_plan sh in
  acquire_plan sh ~tid plan;
  let rec stands = function
    | a :: (b :: _ as rest) -> Waits.mem_edge sh.waits a b && stands rest
    | _ -> true
  in
  let verdict =
    if not (stands path) then `Retry
    else begin
      let cycle = path in
      let victim = List.fold_left max min_int cycle in
      Engine.abort_txn sh.engine victim;
      retire sh victim;
      Metrics.record_deadlock sh.metrics;
      emit sh ~tid:victim (Trace.Event.Deadlock_victim { cycle });
      if victim = tid then `Self_aborted
      else begin
        wake_tid sh.wakes victim;
        `Retry
      end
    end
  in
  release_plan sh plan;
  Mutex.unlock sh.detector;
  verdict

(* Graceful self-abort from outside the program — an injected fault, a
   blown deadline or the starvation valve. The abort touches everything,
   so it takes every stripe; the attempt then terminates and the job's
   retry machinery takes over under a fresh tid. *)
(* Returns the reason the abort actually landed with: if another actor
   (a deadlock break on some other worker) terminated the transaction
   first, that earlier reason stands and owns the accounting. *)
let abort_self sh ~tid reason =
  let plan = all_plan sh in
  acquire_plan sh ~tid plan;
  Engine.abort_txn ~reason sh.engine tid;
  retire sh tid;
  let actual =
    match Engine.status sh.engine tid with
    | Engine.Aborted r -> r
    | Engine.Committed | Engine.Active -> reason
  in
  release_plan sh plan;
  actual

(* {2 The watchdog}

   A spare domain polling the per-worker heartbeats. A worker that has
   not stamped its heartbeat within [threshold_us], and is not idle (a
   think gap, a park on a lock wait, or done), is reported — once
   per stuck episode, i.e. once per stale heartbeat value — as a
   watchdog kick, with a trace event attributed to the stuck worker's
   lane and current tid. The watchdog only observes; recovery is the
   deadline/retry machinery's job (a stalled worker resumes by itself,
   a deadlocked one is broken by the detector). It owns no ring, so its
   events go through the sink's external side channel. *)
let watchdog_loop sh ~stop ~threshold_us =
  let n = Array.length sh.hb in
  let kicked = Array.make n min_int in
  let interval_s = Float.max 5e-4 (threshold_us /. 4. /. 1e6) in
  let threshold_ns = int_of_float (threshold_us *. 1e3) in
  while not (Atomic.get stop) do
    Unix.sleepf interval_s;
    let now = now_ns () in
    for w = 0 to n - 1 do
      let ts = Atomic.get sh.hb.(w) in
      if ts > 0 && ts < max_int && now - ts > threshold_ns && kicked.(w) <> ts
      then begin
        kicked.(w) <- ts;
        Metrics.record_watchdog sh.metrics;
        match sh.sink with
        | Some s ->
          Trace.Sink.emit_external s ~worker:w ~tid:(Atomic.get sh.hb_tid.(w))
            (Trace.Event.Watchdog { worker = w; stalled_ns = now - ts })
        | None -> ()
      end
    done
  done

(* Begin/terminal-status calls on the striped locking engine are
   internally synchronized (registry mutex, atomics) and run without
   stripes; the multiversion and timestamp engines are single-threaded
   throughout and get the full set. *)
let with_aux_exclusion sh ~tid f =
  if sh.serial_aux then begin
    let plan = all_plan sh in
    acquire_plan sh ~tid plan;
    Fun.protect ~finally:(fun () -> release_plan sh plan) f
  end
  else f ()

(* Build the shared execution state: engine, stripes, waits-for graph,
   certifier/tear/lock hooks — everything the step interface below
   needs, up to and including [Metrics.start]. *)
let make_shared ?next_key_locking ?update_locks (cfg : config) ~family =
  (* Only the locking engine is striped, and only when several workers
     step it; the multiversion and timestamp engines stay single-threaded
     and run every step (and begin/status) under one latch, and so does
     a lone worker, which has nothing to contend with. *)
  let striped = family = `Locking && cfg.workers > 1 in
  let nstripes = if striped then cfg.stripes else 1 in
  let engine =
    Engine.create ~initial:cfg.initial ~predicates:cfg.predicates
      ~stripes:nstripes ~audit:false
      ~first_updater_wins:cfg.first_updater_wins ?next_key_locking
      ?update_locks ?wal_dir:cfg.wal_dir ?wal_segment_bytes:cfg.wal_segment_bytes
      ~checkpoint_every:cfg.checkpoint_every ~retain_trace:cfg.keep_history
      ~family ()
  in
  let wakes = { wm = Mutex.create (); by_tid = Hashtbl.create 16 } in
  let certifier =
    if not cfg.certify then None
    else begin
      (* Event emission rides the acting worker's DLS ring binding, like
         the lock hook: both callbacks fire inside the engine's trace
         critical section on the acting worker's domain. *)
      let on_edge =
        Option.map
          (fun s ~src ~dst ~dep ->
            Trace.Sink.emit s ~tid:dst (Trace.Event.Dep_edge { src; dst; dep }))
          cfg.trace
      in
      (* A doomed transaction parked on a lock is woken at doom time, so it
         aborts and releases its own locks now rather than once whatever
         it waits on finishes. *)
      let on_cycle (v : Certifier.violation) =
        Option.iter
          (fun s ->
            Trace.Sink.emit s ~tid:v.dst
              (Trace.Event.Dep_cycle
                 { cycle = v.cycle; dep = v.dep; src = v.src; dst = v.dst;
                   victim_level = v.victim_level }))
          cfg.trace;
        Option.iter (wake_tid wakes) v.doomed
      in
      Some
        (Certifier.create ?on_edge ~on_cycle ~prune_every:cfg.prune_every
           ~mode:Certifier.Enforce ~criterion:cfg.criterion ~family ())
    end
  in
  let sh =
    {
      engine;
      stripes = Stripes.create (nstripes + 1);
      nstripes;
      all = (if striped then List.init (nstripes + 1) Fun.id else [ 0 ]);
      striped;
      serial_aux = family <> `Locking;
      waits = Waits.create ();
      wakes;
      certifier;
      detector = Mutex.create ();
      next_tid = Atomic.make 1;
      (* One counter cell per stepping domain at most: a lone worker
         needs one. *)
      metrics =
        Metrics.create ~stripes:nstripes
          ?cells:(if cfg.workers = 1 then Some 1 else None) ();
      recorder =
        (if cfg.keep_history then Some (Recorder.create ~stripes:cfg.workers)
         else None);
      sink = cfg.trace;
      watched = cfg.watchdog_us <> None;
      hb = Array.init (max 1 cfg.workers) (fun _ -> Atomic.make 0);
      hb_tid = Array.init (max 1 cfg.workers) (fun _ -> Atomic.make 0);
    }
  in
  (* The certifier feed: every action enters the recorded trace exactly
     once, inside the engine's trace critical section, on the acting
     worker's domain — so the certifier sees the history in its recorded
     order and a doomed transaction observes its doom before its own
     next operation. *)
  (match certifier with
  | None -> ()
  | Some c -> Engine.set_trace_hook engine (fun pos a -> Certifier.observe c pos a));
  (* Vacuum retirement feed (multiversion only): the engine reports the
     versions each vacuum buried — under the committing worker's
     all-stripes exclusion — and the certifier drops its version-order
     entries for exactly those, keeping [--history false] MV runs flat. *)
  (match certifier with
  | None -> ()
  | Some c -> Engine.set_prune_hook engine (fun buried -> Certifier.mv_trim c ~buried));
  (* Torn-commit injection: the hook fires on the committing worker's
     domain (under its stripes, DLS ring bound), so metrics and trace
     emission are safe here. *)
  (match cfg.fault with
  | None -> ()
  | Some plan ->
    Engine.set_tear_hook engine (fun tid ->
        match Fault.Plan.point plan ~tid Fault.Plan.Commit with
        | Some Fault.Plan.Torn_commit ->
          Metrics.record_fault sh.metrics;
          emit sh ~tid (Trace.Event.Fault_inject { klass = "torn_commit" });
          true
        | _ -> false));
  (* Lock traffic reaches the trace through the engine's observation
     hook; it fires inside a step — so under the step's stripes — on the
     calling worker's domain, and the DLS ring binding routes it
     correctly. *)
  (match cfg.trace with
  | None -> ()
  | Some s ->
    (* The hook runs inside the stripe critical section: build the label
       by concatenation (same shape as {!Locking.Lock_table.pp_request})
       rather than going through a formatter there. *)
    let req_label = function
      | Locking.Lock_table.Read_item k -> "S(" ^ k ^ ")"
      | Locking.Lock_table.Update_item k -> "U(" ^ k ^ ")"
      | Locking.Lock_table.Write_item { k; _ } -> "X(" ^ k ^ ")"
      | Locking.Lock_table.Read_pred p ->
        "S<" ^ Storage.Predicate.name p ^ ">"
      | Locking.Lock_table.Write_pred p ->
        "X<" ^ Storage.Predicate.name p ^ ">"
    in
    Engine.set_lock_hook engine (function
      | Locking.Lock_table.On_grant { owner; req; tag = _; upgrade } ->
        Trace.Sink.emit s ~tid:owner
          (Trace.Event.Lock_grant { req = req_label req; upgrade })
      | Locking.Lock_table.On_conflict { owner; req; upgrade; holders } ->
        Trace.Sink.emit s ~tid:owner
          (Trace.Event.Lock_conflict
             { req = req_label req; upgrade; holders })
      | Locking.Lock_table.On_release { owner; count } ->
        Trace.Sink.emit s ~tid:owner (Trace.Event.Lock_release { count })));
  Metrics.start sh.metrics;
  sh

(* Stop the clock and gather everything a finished run reports
   ([exec_finalize], for batch runs and servers alike). The trace
   sink's per-worker rings and the recorder shards are drained here, so
   a drained shutdown keeps its tail events. *)
let collect_result (cfg : config) sh =
  Metrics.stop sh.metrics;
  let history = Engine.trace sh.engine in
  let events, events_dropped =
    match cfg.trace with
    | None -> ([], 0)
    | Some s -> (Trace.Sink.events s, Trace.Sink.dropped s)
  in
  let journal = Option.fold ~none:[] ~some:Recorder.entries sh.recorder in
  (* A run without history ([keep_history = false]) recorded no engine
     trace and no journal, so there is nothing for the oracle to check:
     the online certifier is the verdict. The per-victim verdict takes
     each transaction's declared level from the recorder journal. *)
  let oracle, mixed =
    if not cfg.keep_history then (None, None)
    else
      let levels = List.map (fun (e : Recorder.entry) -> (e.tid, e.level)) in
      let v, m =
        Oracle.check_run ~phenomena:cfg.oracle_phenomena
          ?levels:(if cfg.criterion = Certifier.Mixed then Some (levels journal) else None)
          history
      in
      (Some v, m)
  in
  {
    history;
    final = Engine.final_state sh.engine;
    metrics = Metrics.snapshot sh.metrics;
    journal;
    oracle;
    mixed;
    certifier = Option.map Certifier.finalize sh.certifier;
    lock_stats = Engine.lock_stats sh.engine;
    lock_stripes = sh.nstripes;
    events;
    events_dropped;
    wal = Engine.wal sh.engine;
  }

(* {2 Live observation}

   Everything here is a racy-tolerant read of running state: metric
   counter sums are per-cell atomic and monotone ({!Metrics.snapshot}'s
   live contract), the certifier reads its gauges under its own locks
   without draining the batch queue, the lock-table counters are
   atomics, and WAL/history lengths come from their own synchronized
   accessors. No worker is stopped or slowed beyond the cache traffic
   of the reads themselves. *)

let live_of_shared sh : live =
  {
    at = Unix.gettimeofday ();
    metrics = Metrics.snapshot sh.metrics;
    certifier = Option.map Certifier.stats sh.certifier;
    lock_stats = Engine.lock_stats sh.engine;
    lock_stripes = sh.nstripes;
    wal_entries =
      (match Engine.wal sh.engine with
      | None -> 0
      | Some w -> Storage.Wal.length w);
    wal_stats = Option.map Storage.Wal.stats (Engine.wal sh.engine);
    history_len = Engine.trace_len sh.engine;
  }

(* {2 The step interface}

   Every transaction — a batch worker's job or a server session's — runs
   through the functions below, one engine operation at a time: begin,
   step (fault draw, certifier doom, deadline, stripe plan, engine step,
   waits-for publication, deadlock break, starvation valve), finish. A
   step that blocks returns the wait to its caller instead of sleeping
   through it, and the caller waits for the wake it registered at begin:
   the batch worker ({!run_attempt}) parks its domain, the server parks
   the session and serves runnable ones. The caller owns the
   per-transaction bookkeeping — attempt numbers, blocked tries of the
   current operation, the step sequence number, accumulated wait time —
   and feeds it back in for the terminal accounting. *)

type exec = { ecfg : config; esh : shared }

type session_step =
  | Session_progress
  | Session_blocked of { holders : int list }
  | Session_retry
  | Session_finished
  | Session_aborted of Engine.abort_reason

let exec_create ?next_key_locking ?update_locks (cfg : config) ~family =
  { ecfg = cfg; esh = make_shared ?next_key_locking ?update_locks cfg ~family }

let exec_attach_worker t ~worker =
  Option.iter (fun s -> Trace.Sink.attach s ~worker) t.esh.sink

let exec_fresh_tid t = Atomic.fetch_and_add t.esh.next_tid 1
let exec_env t ~tid = Engine.env t.esh.engine tid

let heartbeat sh ~worker ~tid =
  if sh.watched && worker >= 0 && worker < Array.length sh.hb then begin
    Atomic.set sh.hb_tid.(worker) tid;
    Atomic.set sh.hb.(worker) (now_ns ())
  end

let exec_begin ?declared ~wake t ~worker ~tid ~job ~name ~attempt ~level
    ~read_only =
  let sh = t.esh in
  let declared = Option.value declared ~default:level in
  heartbeat sh ~worker ~tid;
  Mutex.lock sh.wakes.wm;
  Hashtbl.replace sh.wakes.by_tid tid wake;
  Mutex.unlock sh.wakes.wm;
  if sh.sink <> None then
    emit sh ~tid
      (Trace.Event.Attempt_begin
         { job; name; attempt; level = Level.name declared });
  with_aux_exclusion sh ~tid (fun () ->
      Engine.begin_txn ~read_only sh.engine tid ~level);
  (* Declare the level before the first action can reach the certifier:
     under the mixed criterion the cycle judgment is victim-relative. *)
  match sh.certifier with
  | Some c -> Certifier.note_level c ~tid ~level:declared
  | None -> ()

let exec_step ?level ~tries t ~worker ~tid ~seq ~start_ns op =
  let sh = t.esh and cfg = t.ecfg in
  heartbeat sh ~worker ~tid;
  (* Fault coordinates: the plan draws per (tid, step-consultation seq),
     so a retried attempt (fresh tid) draws fresh decisions. *)
  let fault =
    match cfg.fault with
    | None -> None
    | Some plan -> Fault.Plan.point plan ~tid (Fault.Plan.Step { seq })
  in
  (match fault with
  | Some (Fault.Plan.Stall { us }) ->
    (* Stall holding no stripes: the worker just goes dark, which is
       what the deadline and the watchdog exist to notice — the
       heartbeat is deliberately left stale for the duration. *)
    Metrics.record_fault sh.metrics;
    emit sh ~tid (Trace.Event.Fault_inject { klass = "stall" });
    Unix.sleepf (us /. 1e6)
  | _ -> ());
  let deadline_at =
    match cfg.deadline_us with
    | Some us -> start_ns + int_of_float (us *. 1e3)
    | None -> max_int
  in
  match fault with
  | Some Fault.Plan.Step_fail ->
    (* Spurious failure: abort here; the caller retries. *)
    Metrics.record_fault sh.metrics;
    emit sh ~tid (Trace.Event.Fault_inject { klass = "step_fail" });
    Session_aborted (abort_self sh ~tid Engine.Fault_injected)
  | Some Fault.Plan.Victim ->
    (* Forced deadlock victim: same path a detector break takes. *)
    Metrics.record_fault sh.metrics;
    emit sh ~tid (Trace.Event.Fault_inject { klass = "victim" });
    Session_aborted (abort_self sh ~tid Engine.Deadlock_victim)
  | _
    when (match sh.certifier with
         | Some c ->
           let wait = match op with Program.Commit -> true | _ -> false in
           Certifier.doomed ~wait c tid
         | None -> false) ->
    (* The certifier doomed us for closing a dependency cycle: abort
       before the next operation. Only the commit's poll waits for the
       graph to catch up; that one keeps the committed projection
       acyclic, and a tid it clears is never doomed afterwards, since
       no poll follows it. *)
    Metrics.record_certifier_abort ?level sh.metrics;
    Session_aborted (abort_self sh ~tid Engine.Certifier_abort)
  | _ when deadline_at < max_int && now_ns () > deadline_at ->
    (* Past the budget (blocked waits and injected stalls count):
       graceful abort; the retry starts a fresh deadline window. Count
       it only if the abort landed as ours — a concurrent deadlock break
       may have terminated the transaction first, and then its reason
       owns the accounting. *)
    let actual = abort_self sh ~tid Engine.Deadline_exceeded in
    if actual = Engine.Deadline_exceeded then begin
      Metrics.record_deadline_exceeded sh.metrics;
      emit sh ~tid
        (Trace.Event.Deadline_exceeded
           {
             elapsed_ns = now_ns () - start_ns;
             budget_ns = deadline_at - start_ns;
           })
    end;
    Session_aborted actual
  | _ ->
    let traced = sh.sink <> None in
    let op_str = if traced then Fmt.str "%a" Program.pp_op op else "" in
    if traced then emit sh ~tid (Trace.Event.Step_begin { op = op_str });
    let plan = plan_for sh tid op in
    acquire_plan sh ~tid plan;
    let hpos0 = Engine.trace_len sh.engine in
    let stepped =
      match Engine.step sh.engine tid op with
      | Engine.Progress ->
        (* Only a blocked attempt publishes out-edges, so a first try
           has none to remove. *)
        if tries > 0 then Waits.remove_out_edges sh.waits tid;
        (* The multiversion and timestamp engines roll a transaction back
           inside a step that still reports Progress (first-updater-wins,
           too-late); its waiters must not wait for the client's next
           request. Those engines run every step under all stripes. *)
        if sh.serial_aux && Engine.status sh.engine tid <> Engine.Active then
          retire sh tid;
        `Progress
      | Engine.Finished ->
        (* terminated from outside: deadlock victim *)
        retire sh tid;
        `Finished
      | Engine.Blocked holders ->
        Metrics.record_block sh.metrics;
        (* Publish the edges while still holding the step's stripes, so
           they reflect a completed step; the insertion itself reports
           the cycle-closing edge, if any. *)
        `Blocked (holders, set_waiting sh tid holders)
    in
    let hpos1 = Engine.trace_len sh.engine in
    release_plan sh plan;
    let outcome =
      match stepped with
      | (`Progress | `Finished) as o -> o
      | `Blocked ([], None) -> `Retry [] (* no edge stands to wake it *)
      | `Blocked (holders, None) -> `Wait holders
      | `Blocked (holders, Some path) -> (
        match break_deadlock sh tid path with
        | `Retry -> `Retry holders
        | `Self_aborted -> `Self_aborted holders)
    in
    (* Untraced steps build no events. *)
    if traced then
      emit sh ~tid
        (Trace.Event.Step_end
           {
             op = op_str;
             outcome =
               (match outcome with
               | `Progress -> Trace.Event.Progress
               | `Finished -> Trace.Event.Finished
               | `Wait hs | `Retry hs | `Self_aborted hs ->
                 Trace.Event.Blocked hs);
             hpos0;
             hpos1;
           });
    (match outcome with
    | `Progress -> Session_progress
    | `Finished -> Session_finished
    | `Self_aborted _ -> Session_aborted Engine.Deadlock_victim
    | `Retry _ | `Wait _ when tries >= max_op_retries ->
      (* The starvation valve: restart rather than wait forever. *)
      let actual = abort_self sh ~tid Engine.Deadlock_victim in
      Metrics.record_stall sh.metrics;
      emit sh ~tid Trace.Event.Stall_restart;
      Session_aborted actual
    | `Retry _ -> Session_retry
    | `Wait holders -> Session_blocked { holders })

let exec_abort ?(reason = Engine.User_abort) t ~tid =
  ignore (abort_self t.esh ~tid reason : Engine.abort_reason)

let exec_family t = Engine.family t.esh.engine
let exec_live t = live_of_shared t.esh
let exec_history t = Engine.trace t.esh.engine
let exec_final t = Engine.final_state t.esh.engine
let exec_deadlocks t = Metrics.deadlocks t.esh.metrics

let exec_finish t ~worker ~tid ~job ~name ~level ~attempt ~start_ns ~wait_ns =
  let sh = t.esh in
  (* A locking-engine commit is retired here; every other termination
     already was, and this sweep finds no waiters. *)
  retire sh tid;
  Mutex.lock sh.wakes.wm;
  Hashtbl.remove sh.wakes.by_tid tid;
  Mutex.unlock sh.wakes.wm;
  let status =
    with_aux_exclusion sh ~tid (fun () -> Engine.status sh.engine tid)
  in
  (* Group-commit durability point: the commit record was appended under
     the commit's stripes; the fsync that makes it durable happens here,
     holding no stripes, batched with every other transaction waiting at
     the same point ({!Core.Engine.wal_sync}). *)
  if status = Engine.Committed then Engine.wal_sync sh.engine;
  let finish_ns = now_ns () in
  let outcome =
    match status with
    | Engine.Committed ->
      Metrics.record_commit ~wait_ns ~level sh.metrics
        ~latency_ns:(finish_ns - start_ns);
      emit sh ~tid Trace.Event.Commit;
      Recorder.Committed
    | Engine.Aborted reason ->
      Metrics.record_abort ~level sh.metrics reason;
      emit sh ~tid
        (Trace.Event.Abort { reason = Metrics.abort_reason_slug reason });
      Recorder.Aborted reason
    | Engine.Active ->
      raise (Stuck (Fmt.str "T%d still active after its program ended" tid))
  in
  Option.iter
    (fun r ->
      Recorder.record r ~job ~name ~level ~tid ~attempt ~worker ~start_ns
        ~finish_ns outcome)
    sh.recorder;
  (* Everything the runtime will ever ask the engine about this tid has
     been asked (the status read above; env reads happen mid-program);
     release its slot so long runs don't retain every finished txn. The
     MV/timestamp transaction tables only tolerate mutation under every
     stripe, hence the aux exclusion (a no-op for the locking engine,
     which serialises the call itself). *)
  with_aux_exclusion sh ~tid (fun () -> Engine.forget sh.engine tid);
  (outcome, finish_ns)

let exec_note_wait t ~slept_ns =
  Metrics.record_wait_ns t.esh.metrics slept_ns

let exec_note_retry t ~wall_ns =
  Metrics.record_retry_overhead_ns t.esh.metrics wall_ns;
  Metrics.record_retry t.esh.metrics

let exec_note_giveup t ~wall_ns =
  Metrics.record_retry_overhead_ns t.esh.metrics wall_ns;
  Metrics.record_giveup t.esh.metrics

let exec_finalize t = collect_result t.ecfg t.esh

(* {2 The batch runner}

   A client of the step interface with its own worker domains: each
   worker pulls jobs off a shared ticket and drives every attempt
   through [exec_begin] / [exec_step] / [exec_finish], parking on its
   own semaphore while a step is blocked. Think time, the retry policy
   and the watchdog are batch-only. *)

(* Thinking, parked and done workers are idle, never stuck. The next
   step entry stamps the heartbeat again. *)
let idle sh ~worker = Atomic.set sh.hb.(worker) max_int

(* One attempt at a job: begin a fresh transaction, step every
   operation (parking on blocks until the wake fires), and report the
   terminal status. *)
let run_attempt t ~rng ~park ~widx ~jidx ~attempt job =
  let cfg = t.ecfg in
  let tid = exec_fresh_tid t in
  let ops =
    if Program.terminated job.program then job.program.Program.ops
    else job.program.Program.ops @ [ Program.Commit ]
  in
  let start_ns = now_ns () in
  (* A late wake meant for an earlier transaction would cost one
     spurious re-step; drop it before the new wake is registered. *)
  ignore (Semaphore.Binary.try_acquire park : bool);
  exec_begin ~declared:job.declared
    ~wake:(fun () -> Semaphore.Binary.release park)
    t ~worker:widx ~tid ~job:jidx ~name:job.name ~attempt ~level:job.level
    ~read_only:job.read_only;
  let waited_ns = ref 0 in
  let seq = ref 0 in
  let rec exec = function
    | [] -> ()
    | op :: rest ->
      let rec attempt_op tries =
        let s = !seq in
        incr seq;
        match
          exec_step ~level:job.declared ~tries t ~worker:widx ~tid ~seq:s
            ~start_ns op
        with
        | Session_progress ->
          (* Think time between statements, slept holding no stripes:
             the gap during which other workers interleave — without it
             the stripe hand-off all but serializes short transactions
             on hot keys. *)
          if cfg.think_us > 0. && rest <> [] then begin
            idle t.esh ~worker:widx;
            Unix.sleepf (Random.State.float rng (2. *. cfg.think_us) /. 1e6)
          end;
          exec rest
        | Session_finished | Session_aborted _ -> ()
        | Session_retry -> attempt_op (tries + 1)
        | Session_blocked _ ->
          let t0 = now_ns () in
          idle t.esh ~worker:widx;
          Semaphore.Binary.acquire park;
          let slept = now_ns () - t0 in
          waited_ns := !waited_ns + slept;
          exec_note_wait t ~slept_ns:slept;
          emit t.esh ~tid (Trace.Event.Lock_wait { slept_ns = slept });
          attempt_op (tries + 1)
      in
      attempt_op 0
  in
  exec ops;
  let outcome, finish_ns =
    exec_finish t ~worker:widx ~tid ~job:jidx ~name:job.name
      ~level:job.declared ~attempt ~start_ns ~wait_ns:!waited_ns
  in
  (outcome, tid, finish_ns - start_ns)

(* Retry policy: user aborts are the program's own decision and final;
   every system-initiated abort is retried until the budget runs out.
   The restart backoff resets per job and keeps escalating across the
   job's attempts: a restart that comes back too soon meets the same
   contenders and deadlocks again (the 2PL upgrade storm). *)
let run_job t ~rng ~park ~rbo ~widx jidx job =
  Backoff.reset rbo;
  let rec go attempt =
    let outcome, tid, wall_ns =
      run_attempt t ~rng ~park ~widx ~jidx ~attempt job
    in
    match outcome with
    | Recorder.Committed | Recorder.Aborted Engine.User_abort -> ()
    | Recorder.Aborted _ ->
      (* The failed attempt's whole wall time is retry overhead, and so is
         the restart backoff that follows it. *)
      if attempt >= max_attempts then exec_note_giveup t ~wall_ns
      else begin
        exec_note_retry t ~wall_ns;
        let t0 = now_ns () in
        Backoff.wait rbo;
        let slept = now_ns () - t0 in
        Metrics.record_retry_overhead_ns t.esh.metrics slept;
        emit t.esh ~tid
          (Trace.Event.Retry_backoff
             { slept_ns = slept; next_attempt = attempt + 1 });
        go (attempt + 1)
      end
  in
  go 1

let worker t ~next_job widx =
  let cfg = t.ecfg in
  exec_attach_worker t ~worker:widx;
  let rng = Random.State.make [| cfg.seed; 0x90c0; widx |] in
  let park = Semaphore.Binary.make false in
  let rbo = Backoff.create ~rng () in
  let rec loop () =
    match next_job () with
    | None -> idle t.esh ~worker:widx
    | Some (jidx, job) ->
      run_job t ~rng ~park ~rbo ~widx jidx job;
      loop ()
  in
  loop ()

let run_with ?monitor (cfg : config) ~family ~next_job =
  let t = exec_create cfg ~family in
  let stop_watchdog = Atomic.make false in
  let watchdog =
    match cfg.watchdog_us with
    | None -> None
    | Some threshold_us ->
      Some
        (Domain.spawn (fun () ->
             watchdog_loop t.esh ~stop:stop_watchdog ~threshold_us))
  in
  let spawned =
    List.init (cfg.workers - 1) (fun i ->
        Domain.spawn (fun () -> worker t ~next_job (i + 1)))
  in
  (* Hand the caller a live sampler before this domain becomes worker 0;
     the callback must return promptly (spawn a thread to poll). *)
  (match monitor with
  | None -> ()
  | Some f -> f (fun () -> exec_live t));
  (* The calling domain is worker 0; join the rest even if it trips. *)
  let mine = try Ok (worker t ~next_job 0) with e -> Error e in
  List.iter Domain.join spawned;
  Atomic.set stop_watchdog true;
  Option.iter Domain.join watchdog;
  (match mine with Ok () -> () | Error e -> raise e);
  exec_finalize t

(* Family inference prefers the declared mix ([cfg.levels]) over the
   first job: a run materializes one job at a time, so judging the
   family from [(gen 0).level] alone would accept a
   cross-family mix whose first draw looks innocent and then crash (or
   silently mis-run) mid-stream. With the full mix declared up front the
   rejection is immediate and names the offending levels. *)
let family_for cfg ~gen =
  match cfg.family with
  | Some f -> f
  | None ->
    Engine.family_of_levels
      (if cfg.levels <> [] then cfg.levels else [ (gen 0).level ])

(* The drain flag: once set, [next_job] answers None — workers finish
   the job in hand (its retries included) and exit, and the collectors
   then drain every recorder shard and trace ring as usual, so a SIGINT
   shutdown loses no tail events. *)
let draining cfg =
  match cfg.stop with Some s -> Atomic.get s | None -> false

(* The batch driver. Jobs are generated on demand, so a
   million-transaction run holds only the jobs in flight; the run stops
   at whichever bound comes first: [txns] jobs handed out, the
   [duration_s] deadline, or the drain flag. *)
let run_for ?monitor ?txns ?duration_s cfg ~gen =
  if txns = None && duration_s = None && cfg.stop = None then
    invalid_arg "Pool.run_for: no ~txns, no ~duration_s and no stop flag";
  let family = family_for cfg ~gen in
  let txns = Option.value txns ~default:max_int in
  let expired =
    match duration_s with
    | None -> fun () -> false
    | Some d ->
      let deadline = Unix.gettimeofday () +. d in
      fun () -> Unix.gettimeofday () >= deadline
  in
  let next = Atomic.make 0 in
  let next_job () =
    if draining cfg || expired () then None
    else
      let i = Atomic.fetch_and_add next 1 in
      if i < txns then Some (i, gen i) else None
  in
  run_with cfg ?monitor ~family ~next_job
