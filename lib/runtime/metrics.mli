(** Runtime metrics: throughput, latency quantiles and abort accounting
    for the multicore worker pool.

    Counters are sharded per domain ({!Stripes.Counter}) and recorded
    lock-free; a commit's latencies land in log₂ histograms under one
    short critical section, shared only with other commits and
    snapshots. Quantiles are therefore bucket-resolution
    approximations (successive buckets differ by 2×), which is enough to
    track the performance trajectory across PRs.

    {2 Live-read semantics}

    {!snapshot} may be called at any time, from any thread, while the
    workers are still recording. Each counter read is individually
    atomic: a per-domain cell is an [Atomic.t], so a sum never tears a
    cell and never goes backwards between two snapshots of the same
    counter (counters are monotone). What a live snapshot does {e not}
    promise is cross-counter consistency — a commit that lands between
    reading [committed] and reading [lat_hist] appears in one but not
    the other, so derived ratios can be off by the handful of events in
    flight. Once the workers have joined (after {!stop}), a snapshot is
    exact. *)

type t

val create : ?stripes:int -> ?cells:int -> unit -> t
(** [stripes] (default 1) sizes the per-stripe acquisition counters: one
    pair per key stripe plus one for the predicate stripe. [cells]
    (default 16) sizes every sharded counter ({!Stripes.Counter}); one
    cell suffices when a single domain records. *)

val start : t -> unit
(** Mark the wall-clock start of the measured run. *)

val stop : t -> unit
(** Mark the end; {!snapshot} then reports the closed interval. *)

val record_commit :
  ?wait_ns:int -> ?level:Isolation.Level.t -> t -> latency_ns:int -> unit
(** [wait_ns] is the share of [latency_ns] the attempt spent sleeping on
    blocked operations; the remainder is counted as execution time in the
    phase histograms. Defaults to 0 (all execution). [level] (when the
    caller knows it) also feeds the per-level breakdown. *)

val record_abort : ?level:Isolation.Level.t -> t -> Core.Engine.abort_reason -> unit

val record_block : t -> unit
(** A step attempt came back [Blocked] (a lock wait). *)

val record_wait_ns : t -> int -> unit
(** Time actually slept waiting for a lock. *)

val record_retry : t -> unit
(** A transaction attempt aborted and will be restarted. *)

val record_stripe_acquire : t -> int -> contended:bool -> unit
(** Stripe [i] was acquired; [contended] means the mutex was held when
    first tried ({!Stripes.acquire} returned [true]). *)

val record_deadlock : t -> unit
(** A waits-for cycle was broken by aborting a victim. *)

val record_stall : t -> unit
(** A worker restarted itself after exhausting blocked retries on one
    operation (lost-wakeup / starvation safety valve). *)

val record_giveup : t -> unit
(** A job exhausted its attempt budget without committing. *)

val record_retry_overhead_ns : t -> int -> unit
(** Time charged to retrying: a failed attempt's whole wall time, or a
    restart backoff sleep between attempts. *)

val record_fault : t -> unit
(** The fault plan injected a fault (any class) at a consulted point. *)

val record_deadline_exceeded : t -> unit
(** An attempt ran past its deadline and aborted itself. *)

val record_watchdog : t -> unit
(** The watchdog saw a worker make no step progress past its threshold. *)

val record_certifier_abort : ?level:Isolation.Level.t -> t -> unit
(** The online certifier doomed a transaction whose action closed a
    dependency cycle (also recorded as an abort with reason
    [Certifier_abort] when the worker notices the doom). *)

type level_stats = {
  level : Isolation.Level.t;
  l_committed : int;
  l_aborted : int;
  l_doomed : int;  (** certifier dooms at this level *)
}

type snapshot = {
  taken_at : float;  (** unix time the snapshot was cut *)
  committed : int;
  aborted : (Core.Engine.abort_reason * int) list;  (** non-zero reasons *)
  aborted_total : int;
  retries : int;
  giveups : int;
  deadlocks : int;
  stalls : int;
  lock_waits : int;
  wait_ns : int;
  wall_s : float;
  throughput : float;  (** committed transactions per second *)
  lat_p50_ms : float;
  lat_p90_ms : float;
  lat_p99_ms : float;
  lat_max_ms : float;
  lat_mean_ms : float;
  exec_p50_ms : float;  (** committed attempts' engine-execution phase *)
  exec_p99_ms : float;
  exec_mean_ms : float;
  lock_wait_p50_ms : float;  (** committed attempts' lock-wait phase *)
  lock_wait_p99_ms : float;
  lock_wait_mean_ms : float;
  retry_overhead_s : float;
      (** total wall time of failed attempts plus restart backoffs *)
  stripe_acquired : int;  (** total stripe-mutex acquisitions *)
  stripe_contended : int;  (** of those, how many found the mutex held *)
  lock_stripe_contended : float;
      (** contended / acquired — the striping health number: near 0 means
          workers rarely meet on a stripe, near 1 means the stripe set
          degenerated to a coarse latch *)
  stripe_detail : (int * int) array;
      (** per stripe (the last entry is the predicate stripe):
          (acquired, contended) *)
  faults_injected : int;
      (** fault-plan injections (events, not aborts: a stall counts) *)
  deadline_exceeded : int;  (** attempts aborted for blowing the deadline *)
  watchdog_kicks : int;  (** watchdog sightings of a stuck worker *)
  certifier_aborts : int;
      (** transactions doomed by the online certifier for closing a
          dependency cycle *)
  lat_hist : int array;
      (** raw commit-latency bucket counts (bucket i covers latencies of
          roughly [2^i] ns); monotone between snapshots, so two snapshots
          diff into an interval histogram *)
  epoch : int;
      (** every snapshot closes one epoch; this is the number of the one
          it closed *)
  epoch_max_ns : int array;
      (** the largest commit latency (ns) recorded in each of the last
          [Array.length] epochs, epoch [e] at index [e mod length]: the
          max of an interval between two snapshots whose epochs are at
          most that far apart *)
  per_level : level_stats list;
      (** per-isolation-level outcomes, non-zero levels only; sites that
          don't know the level feed only the global counters, so the
          column sums may trail them *)
}

val deadlocks : t -> int
(** The [deadlocks] count a {!snapshot} would report, read alone. *)

val snapshot : t -> snapshot
(** Safe to call while the workers run (see the live-read semantics
    above): each counter is individually consistent and monotone, the
    set is only approximately mutually consistent until the workers have
    joined — then it is exact. *)

val hist_quantile : int array -> int -> float -> float
(** [hist_quantile hist total q] reads quantile [q] (in \[0,1\]) off a
    bucket-count array in the [lat_hist] encoding, in milliseconds,
    placed log-linearly inside the bucket where the cumulative count
    reaches the rank (a bucket's only sample reads its geometric
    midpoint). Used by live consumers to quote interval latencies from
    snapshot diffs. *)

val pp : snapshot Fmt.t

val abort_reason_slug : Core.Engine.abort_reason -> string
(** Stable machine-readable name, used as the JSON key. *)

val to_json : ?extra:(string * string) list -> snapshot -> string
(** One JSON object; [extra] prepends already-encoded key/value pairs
    (e.g. [("level", {|"serializable"|})]). *)
