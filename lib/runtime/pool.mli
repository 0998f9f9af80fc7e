(** The multicore transaction-processing runtime: a Domain-based worker
    pool that drives one {!Core.Engine} under real concurrency.

    N workers pull jobs (a transaction program plus its isolation level)
    from a shared lock-free queue and execute them against a single
    engine instance. Mutual exclusion is *striped*: the engine's keys
    hash onto [stripes] key stripes (the same {!Storage.Shard} map the
    sharded store and lock table use), with one extra stripe — ordered
    last — dedicated to predicate locks. Before each engine step the
    worker asks the engine for the operation's footprint
    ({!Core.Engine.footprint}) and takes exactly the stripes it names,
    in ascending index order, so steps on keys in different shards run
    concurrently while scans, commits and aborts take every stripe.
    Conflicting steps always share a stripe, which is what keeps the
    recorded history conflict-faithful (see {!field:result.history}).
    [coarse = true] collapses the set to a single latch through the same
    code path; the single-threaded multiversion and timestamp engines
    always run that way.

    Every transaction runs through one step path, the step interface
    below ({!exec_begin}, {!exec_step}, {!exec_finish}); the batch
    entry points ({!run_n}, {!run_for}) are its clients, as are the wire
    server and the deterministic driver {!Executor}. A blocked
    transaction waits *outside* its stripes until a transaction it
    waits on terminates, so lock waits in the engine never idle the
    other workers. A batch worker parks its domain; the server parks
    the session; the driver retries the operation when its schedule
    next names the transaction.

    The waits-for graph is a {!Graph.Incremental}: a blocked step
    publishes its edges under its stripes, and the insertion that would
    close a cycle is rejected with its witness on the spot — deadlock
    detection costs nothing while the graph stays acyclic. The reporting
    worker confirms the witness under every stripe and aborts the
    youngest member, whose job restarts under a fresh transaction id.
    This is the only victim rule. The closing edge is never stored, so a
    deadlock is found when the wait that closes it is published (a
    surviving one again at its waiter's next step); where one
    interleaving forms two or more deadlocks, the order of those
    publications, not a search of the whole graph, decides which
    members die. Aborted attempts (deadlock victim, First-Committer-Wins,
    serialization failure, timestamp too-late, certifier doom) are
    retried up to 64 attempts, after a jittered restart backoff
    ({!Backoff}).

    With [certify = true] the run is additionally certified online: the
    engine trace feeds a {!Certifier} as each action is recorded, and a
    transaction whose action closes a dependency cycle is doomed and
    aborted before it can commit ([Certifier_abort]), so the committed
    projection stays serializable at any isolation level.

    The run's engine trace, attempt journal, metrics, the {!Oracle.t}
    verdict over the recorded history — and, when certifying, the
    certifier's own online verdict — come back in {!result}. *)

module Action := History.Action
module Level := Isolation.Level

type job = {
  name : string;
  program : Core.Program.t;
  level : Level.t;
      (** execution level — must belong to the engine family *)
  declared : Level.t;
      (** the level the client asked for. Under the [Mixed] criterion
          the certifier and oracle judge the transaction against this;
          metrics and the journal attribute to it. Defaults to
          {!field:level}. *)
  read_only : bool;
}

val job :
  ?name:string ->
  ?read_only:bool ->
  ?declared:Level.t ->
  level:Level.t ->
  Core.Program.t ->
  job
(** [declared] defaults to [level], so single-level runs are unchanged.
    A mixed run executing on one engine family passes the client's
    requested level as [declared] and its in-family strengthening
    ({!Isolation.Lattice.strengthen}) as [level]. *)

type config = {
  workers : int;
  initial : (Action.key * Action.value) list;
  predicates : Storage.Predicate.t list;
  family : [ `Locking | `Mv | `Timestamp ] option;
      (** engine family; [None] infers it from the job levels *)
  first_updater_wins : bool;
  stripes : int;
      (** key stripes for the striped execution path (locking engines
          only; plus one implicit predicate stripe). Default 16. *)
  coarse : bool;
      (** force the old coarse-latch behavior: one stripe, every
          footprint treated as All. The comparison baseline for the
          striped path. *)
  think_us : float;
      (** mean think time slept (holding no stripes) between a
          transaction's operations. 0 measures raw engine throughput, but
          then transactions are so short they rarely overlap; a realistic
          think time is what makes the stress contend. *)
  oracle_phenomena : Phenomena.Phenomenon.t list;
      (** detectors the post-run oracle applies *)
  seed : int;
      (** seeds each worker's think times and restart backoff jitter *)
  trace : Trace.Sink.t option;
      (** flight recorder for the structured event trace. [None] (the
          default) costs one branch per instrumentation point; [Some]
          records the full transaction lifecycle — attempts, engine
          steps with their history-position ranges, lock traffic,
          stripe contention, lock waits, restart backoffs, deadlock
          victims — into per-worker ring buffers that overwrite their
          oldest events rather than ever blocking a worker. *)
  fault : Fault.Plan.t option;
      (** deterministic seeded fault plan, consulted before every step
          (stall / spurious failure / forced victim) and at every commit
          (torn WAL tail, locking engines). [None] (the default) costs
          one branch per step. Injected aborts drain through the normal
          retry machinery. *)
  deadline_us : float option;
      (** per-attempt wall-clock budget: an attempt past it aborts itself
          gracefully ([Deadline_exceeded]) and the job retries with a
          fresh window. Checked before each step, so a stalled attempt
          notices on its next step and a parked one once it is woken. *)
  watchdog_us : float option;
      (** stuck-worker threshold: [Some t] spawns a watchdog domain that
          reports (metrics + trace event) any worker whose last step
          entry is more than [t] microseconds old. A worker thinking
          between operations or parked on a lock wait is idle, not
          stuck. Observation only — no recovery action. *)
  certify : bool;
      (** online serializability certification (default false): feed the
          recorded history to a {!Certifier} in [Enforce] mode and abort
          any transaction whose action closes a dependency cycle before
          its next operation. Adds [Dep_edge] / [Dep_cycle] trace events
          when tracing, [certifier_aborts] to the metrics, and the
          online {!Certifier.summary} to the result. *)
  criterion : Certifier.criterion;
      (** what certification enforces (default [Serializability], the
          single-level behaviour — verdicts byte-identical to before).
          [Mixed] judges each rejected cycle against the declared level
          of its members ({!field:job.declared}): a member is doomed
          only when the cycle's phenomenon candidates are all forbidden
          at its own level, and the result additionally carries the
          post-run {!Oracle.mixed} verdict. *)
  levels : Level.t list;
      (** the declared level mix of the whole run, for engine-family
          inference in generator mode ([]: infer from the jobs in
          hand). A cross-family mix is rejected up front with an error
          naming the offending levels, instead of crashing mid-stream
          on the first cross-family draw. *)
  certify_batch : bool;
      (** batch certifier edge offers (default true): the trace hook only
          buffers each action, shrinking the engine's recorder critical
          section to a list cons, and the dependency-graph work happens
          at the workers' next {!Certifier.doomed} poll that finds the
          certifier free (every commit's poll waits for it) instead of
          inside the trace lock. Verdicts are identical; [false]
          restores the unbatched feed. *)
  prune_every : int;
      (** certifier era-pruning cadence (default 4096, 0 = off): every
          that many commits the certifier trims settled era-stack
          bottoms, folds committed predicate readers/writers into
          virtual nodes and retires unreferenced committed sources, so
          certified out-of-core runs keep a bounded dependency graph.
          Verdict-preserving ({!Certifier.create}). *)
  wal_dir : string option;
      (** directory for the locking engine's segmented on-disk WAL
          (created if missing), which group-commits its fsyncs
          ({!Storage.Wal.create}'s default). [None] (the default) keeps
          the log in memory, exactly as before. *)
  wal_segment_bytes : int option;
      (** WAL segment rotation threshold (default 4 MiB). *)
  checkpoint_every : int;
      (** commits between WAL checkpoints (default 0 = never): each
          checkpoint logs the committed store image plus the active
          transactions' undo journals and truncates everything older —
          on disk that unlinks wholly-retired segments, in memory it
          collapses the record list — so the log stays bounded. *)
  keep_history : bool;
      (** [true] (the default) keeps the full engine trace and the
          attempt journal, and runs the post-run oracle over the trace.
          [false] is the out-of-core mode: the engine appends nothing to
          its in-memory trace (the WAL and the certifier feed still see
          every action) and no journal is kept, so
          {!field:result.history} and {!field:result.journal} come back
          empty and {!field:result.oracle} is [None] — the online
          certifier is the serializability verdict. *)
  stop : bool Atomic.t option;
      (** drain flag: when the atomic flips to [true], workers finish the
          job in hand (retries included), take no new jobs, and the run
          returns normally with every tail event and journal entry
          intact. Wire it to SIGINT for graceful shutdown. [None] (the
          default) never drains early. *)
}

val config :
  ?workers:int ->
  ?initial:(Action.key * Action.value) list ->
  ?predicates:Storage.Predicate.t list ->
  ?family:[ `Locking | `Mv | `Timestamp ] ->
  ?first_updater_wins:bool ->
  ?stripes:int ->
  ?coarse:bool ->
  ?think_us:float ->
  ?oracle_phenomena:Phenomena.Phenomenon.t list ->
  ?oracle_window:int ->
  ?seed:int ->
  ?trace:Trace.Sink.t ->
  ?fault:Fault.Plan.t ->
  ?deadline_us:float ->
  ?watchdog_us:float ->
  ?certify:bool ->
  ?criterion:Certifier.criterion ->
  ?levels:Level.t list ->
  ?certify_batch:bool ->
  ?prune_every:int ->
  ?wal_dir:string ->
  ?wal_segment_bytes:int ->
  ?checkpoint_every:int ->
  ?keep_history:bool ->
  ?spill_dir:string ->
  ?stop:bool Atomic.t ->
  unit ->
  config
(** [oracle_window] and [spill_dir] are accepted and ignored: the
    post-run oracle always judges the whole history, the attempt journal
    lives in memory, and a run without history keeps none. *)

(** {2 Live observation}

    A racy-tolerant reading of a run in flight: metric sums are
    per-cell atomic and monotone ({!Metrics.snapshot}'s live contract),
    certifier gauges come from {!Certifier.stats} without draining its
    batch queue, lock-table counters are atomics, WAL and history
    lengths from their synchronized accessors. Sampling never stops a
    worker. *)
type live = {
  at : float;  (** unix time the reading was taken *)
  metrics : Metrics.snapshot;
  certifier : Certifier.stats option;
  lock_stats : Locking.Lock_table.stats option;
  lock_stripes : int;   (** key stripes backing the lock table / store *)
  wal_entries : int;    (** live records in the locking engine's log *)
  wal_stats : Storage.Wal.stats option;
      (** segment / sync / checkpoint / batch-histogram gauges of the
          locking engine's log ({!Storage.Wal.stats}) *)
  history_len : int;    (** actions in the recorded history *)
}

type result = {
  history : History.t;
      (** the engine trace of the whole run. Conflicting actions always
          executed under a common stripe, so the trace orders every
          conflicting pair exactly as it happened — a conflict-faithful
          linearization (and under [coarse], where every step held the
          single latch, a true one). *)
  final : (Action.key * Action.value) list;
  metrics : Metrics.snapshot;
  journal : Recorder.entry list;
      (** the merged attempt journal; empty when [config.keep_history]
          is [false], which keeps no journal *)
  oracle : Oracle.t option;
      (** the post-run oracle's verdict over {!field:history}; [None]
          when [config.keep_history] is [false] — no trace was kept, and
          the online certifier supplies the verdict instead *)
  mixed : Oracle.mixed option;
      (** the per-victim mixed-level verdict ([Some] iff
          [config.criterion] is [Mixed] and the history was kept): each
          detector witness judged against its victim's declared level,
          plus the anomaly × victim-level matrix *)
  certifier : Certifier.summary option;
      (** the online certifier's finalized verdict and edge/cycle
          accounting ([Some] iff [config.certify]) *)
  lock_stats : Locking.Lock_table.stats option;  (** locking engines only *)
  lock_stripes : int;  (** key stripes the run used, as in {!live} *)
  events : Trace.Event.t list;
      (** the merged flight-recorder timeline, sorted by timestamp
          (empty when [config.trace] is [None]) *)
  events_dropped : int;
      (** trace events lost to ring overwrites or unattached domains *)
  wal : Storage.Wal.t option;
      (** the locking engine's write-ahead log, for post-run crash-point
          enumeration ({!Fault.Crash.enumerate}); [None] for the other
          families *)
}

exception Stuck of string
(** Raised only on runtime bugs: a transaction left neither committed nor
    aborted after its program ran to completion. *)

val default_stripes : int
(** Key stripes used when [config] is not told otherwise (16). *)

val stripe_plan : stripes:int -> Core.Engine.footprint -> int list
(** The ascending stripe indices a step with the given footprint
    acquires: key stripes [0 .. stripes - 1] via {!Storage.Shard.of_key},
    the predicate stripe at index [stripes] (always last), at least one
    stripe always. Exposed for tests; the pool uses exactly this plan. *)

val run_n :
  ?monitor:((unit -> live) -> unit) ->
  config -> txns:int -> gen:(int -> job) -> result
(** Execute [txns] jobs to completion: workers call [gen] with indices
    [0 .. txns - 1] and stop, holding only the jobs in flight (a fixed
    array of jobs runs as [~gen:(Array.get jobs)]). [gen] is called
    concurrently and must be pure. With [config.family = None] and no
    [config.levels] the family is inferred from [gen 0]. [monitor], if
    given, is called once after the workers have started, with a sampler
    that can be polled from any thread for the duration of the run
    (spawn a thread; the callback itself must return promptly — the
    calling domain becomes worker 0). The sampler must not be used after
    the run returns. *)

val run_for :
  ?monitor:((unit -> live) -> unit) ->
  config -> duration_s:float -> gen:(int -> job) -> result
(** Open-ended run: workers call [gen] with increasing indices until the
    deadline passes. [gen], family inference and [monitor] as in
    {!run_n}. *)

(** {2 The step interface}

    The one path every transaction takes through the engine, one
    operation at a time: stripe plans, incremental waits-for graph and
    deadlock break, starvation valve, fault / certifier / deadline
    consultation, metrics, journal, trace. A blocked step returns the
    wait to its caller rather than sleeping through it, and the caller
    waits for the wake it registered at {!exec_begin}: the batch entry
    points above park the worker's domain on it; a server multiplexing
    sessions ≫ workers parks the blocked session, serves runnable ones,
    and resumes it when the wake fires. The caller (a batch worker, or
    the session scheduler in [lib/server]) owns per-transaction
    bookkeeping: attempt numbers, blocked tries of the current
    operation, accumulated wait time, and the step sequence number that
    addresses fault-plan draws. *)

type exec
(** A shared execution context: one engine plus the pool's concurrency
    machinery, without worker domains of its own. Any thread or domain
    may call into it; steps synchronize on the engine's stripes. *)

(** One step's verdict, from the session's point of view. *)
type session_step =
  | Session_progress      (** executed; feed the next operation *)
  | Session_blocked of { holders : int list }
      (** blocked on these transactions: retry the same op once the
          transaction's wake fires *)
  | Session_retry
      (** blocked, but no stored wait will wake it (its cycle-closing
          wait was rejected, or the engine named no holder): retry at
          once *)
  | Session_finished
      (** the transaction was already terminated from outside (deadlock
          victim, certifier doom observed late); {!exec_finish} reports
          how it ended *)
  | Session_aborted of Core.Engine.abort_reason
      (** aborted itself during this step (injected fault, certifier
          doom, blown deadline, chosen as its own deadlock victim, or
          the starvation valve) *)

val exec_create :
  ?next_key_locking:bool ->
  ?update_locks:bool ->
  config -> family:[ `Locking | `Mv | `Timestamp ] -> exec
(** [config.workers] sizes the heartbeat lanes; pass the number of
    serving threads/domains that will call {!exec_step}.
    [next_key_locking] and [update_locks] (default false) are the
    locking engine's ablations ({!Core.Engine.create}), for the
    deterministic driver's paper experiments. *)

val exec_attach_worker : exec -> worker:int -> unit
(** Bind the calling domain to trace ring [worker] (no-op untraced).
    Call once from each serving domain before it steps sessions. *)

val exec_fresh_tid : exec -> int
(** Globally fresh transaction id (retries must use a new one). *)

val exec_begin :
  ?declared:Isolation.Level.t ->
  wake:(unit -> unit) ->
  exec -> worker:int -> tid:int -> job:int -> name:string -> attempt:int ->
  level:Isolation.Level.t -> read_only:bool -> unit
(** Begin a transaction and emit its [Attempt_begin] event. [job] is the
    session's stable index (journal key); [attempt] starts at 1.
    [declared] (default [level]) is the client's requested level: it is
    what the certifier's mixed criterion judges the transaction against
    and what the attempt event reports, while [level] is what the
    engine executes.

    [wake], kept until {!exec_finish}, is called when a transaction this
    one is blocked on terminates, when this one is chosen as a deadlock
    victim, and when the certifier dooms it. It may be called from any
    domain, under the engine's stripes, and spuriously; it must not
    block or call back into the exec. *)

val exec_step :
  ?level:Isolation.Level.t ->
  tries:int ->
  exec -> worker:int -> tid:int -> seq:int -> start_ns:int ->
  Core.Program.op -> session_step
(** Execute one operation. [seq] is the per-transaction step-consultation
    counter (addresses the fault plan — increment it per call); [start_ns]
    is the attempt's start stamp (grounds the deadline check). [level]
    feeds the per-level breakdown should the certifier doom the
    transaction at this step. [tries] counts the earlier attempts at
    this same operation that blocked (0 on the first try): only such an
    attempt published waits-for edges, so a first try skips clearing
    them, and an operation that blocks again after 10,000 tries aborts
    its transaction instead (the starvation valve: a stall is counted
    and [Session_aborted] returned, so the client restarts it). *)

val exec_env : exec -> tid:int -> Core.Program.env
(** The transaction's observations so far — the read/scan results a
    server returns to its client. *)

val exec_abort : ?reason:Core.Engine.abort_reason -> exec -> tid:int -> unit
(** Abort from outside the program (e.g. the client disconnected);
    [reason] defaults to [User_abort]. No-op if already terminated. *)

val exec_family : exec -> [ `Locking | `Mv | `Timestamp ]

val exec_live : exec -> live
(** Sample the running context (see {!live}); safe from any thread,
    including concurrently with steps. *)

val exec_history : exec -> History.t
(** The engine trace so far: {!field:result.history} without stopping
    the clock or judging it. *)

val exec_final : exec -> (Action.key * Action.value) list
(** The committed store image so far: {!field:result.final}. *)

val exec_deadlocks : exec -> int
(** Deadlocks broken so far: the [deadlocks] count of {!exec_live}'s
    metrics, without taking a snapshot. *)

val exec_finish :
  exec -> worker:int -> tid:int -> job:int -> name:string ->
  level:Isolation.Level.t -> attempt:int -> start_ns:int -> wait_ns:int ->
  Recorder.outcome * int
(** Terminal accounting once the transaction's program (or its abort) is
    done: reads the engine status, waits out a commit's group-commit
    fsync, records commit/abort metrics and the journal entry, emits the
    Commit/Abort event, and returns the outcome with the finish stamp
    (ns, the clock of [start_ns]) its latency was measured to.
    @raise Stuck if the transaction is somehow still active. *)

val exec_note_wait : exec -> slept_ns:int -> unit
(** Account a parked blocked step's wait as lock-wait time. *)

val exec_note_retry : exec -> wall_ns:int -> unit
(** Account a failed attempt's wall time as retry overhead and count the
    retry. *)

val exec_note_giveup : exec -> wall_ns:int -> unit
(** Account a failed final attempt: retry budget exhausted. *)

val exec_finalize : exec -> result
(** Stop the clock and collect the run: history, final state, metrics,
    journal, oracle verdict, certifier verdict, trace events. Call once,
    after the last session has finished. *)
