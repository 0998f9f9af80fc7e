(** The assembled live report: one scrape of a running system, rendered
    either as the STATS JSON object or as a Prometheus text exposition.

    The runtime side arrives as {!Runtime.Pool.live}; the server
    front-end contributes its own gauges through the plain-int records
    below (this module must not depend on [lib/server], which depends
    on it). *)

type scheduler = {
  runnable : int;  (** sessions queued for a worker right now *)
  parked : int;  (** sessions parked on a blocked operation *)
  sessions_active : int;  (** sessions registered and not closed *)
  wakes : int;  (** cumulative ready-queue pops *)
  wake_wait_mean_us : float;  (** mean enqueue-to-run latency *)
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
  live : Runtime.Pool.live;
  scheduler : scheduler option;
  server : server option;
}

val make : ?scheduler:scheduler -> ?server:server -> Runtime.Pool.live -> t

val to_json : t -> string
(** One JSON object: [at], the {!Runtime.Metrics.to_json} object under
    ["metrics"] (which {!Window.of_json} reads back), then [certifier],
    [locks], [wal_entries], [history_len], [wal], [scheduler] and
    [server] sections as available. This is the STATS reply body. *)

(** {1 Section encoders}

    Shared by {!to_json} and {!final_json}: a section has the same keys
    in the live STATS reply and in a run's final report. *)

val locks_json : stripes:int -> Locking.Lock_table.stats -> string
val wal_json : Storage.Wal.stats -> string
val server_json : server -> string

val to_prometheus : t -> string
(** The same reading as a Prometheus text-format (0.0.4) exposition,
    metric names prefixed [isolation_lab_]. *)

(** {1 The final run report}

    One rendering, one JSON object and one exit verdict over a finished
    {!Runtime.Pool.result}, shared by [stress] and [serve]. *)

val oracle_verdict : Runtime.Oracle.t -> string
(** The verdict line's text: CLEAN (pattern-free, or serializable with
    admitted patterns), NOT SERIALIZABLE, or ANOMALIES DETECTED. *)

val pp_final : memory:Runtime.Sysmem.reading -> Runtime.Pool.result Fmt.t
(** Metrics, lock table, memory, WAL (when it synced or checkpointed),
    the oracle with its verdict line, the mixed verdict, and the
    certifier summary with its first 5 violations; every block ends in
    a newline. *)

val final_json :
  ?header:(string * Trace.Json.t) list ->
  ?sections:(string * string) list ->
  memory:Runtime.Sysmem.reading ->
  Runtime.Pool.result ->
  string
(** One JSON object: the [header] fields, then [metrics], [memory],
    [locks], [wal], [oracle], [mixed] and [certifier] as available, then
    the command's own [sections] (each value a JSON text). *)

val verdict : ?promised:Isolation.Level.t -> Runtime.Pool.result -> bool
(** The run's exit verdict. With a [promised] level and a kept history,
    the oracle must be pattern-free at SERIALIZABLE and clean at
    SERIALIZABLE SNAPSHOT and TIMESTAMP ORDERING. A certified run must
    also have the certifier's finalized verdict hold — [mixed_ok] under
    the mixed criterion; under serializability, [serializable], and the
    oracle's [serializable] too when a history was kept. *)

val write_trace :
  string ->
  tool:string ->
  level:string ->
  mix:string ->
  workers:int ->
  seed:int ->
  ?events:Trace.Event.t list ->
  Runtime.Pool.result ->
  unit
(** Write the run's Chrome trace (events default to the result's) with
    its history and drop count in the metadata, and print the
    ["trace: N events"] line. *)
