(** The socket front-end: accept loop, per-connection reader/writer
    threads, frame dispatch into sessions, graceful drain.

    {!serve} blocks until [stop] flips (or [duration_s] passes), drains —
    new OPENs and BEGINs bounce with [err_draining], in-flight
    transactions get [drain_grace_s] to finish, then connections are
    severed and every remaining session closes through the normal pump
    path — and returns the finalized {!Runtime.Pool.result} (history,
    journal, metrics, oracle and certifier verdicts, trace) plus wire
    statistics. *)

type config = {
  host : string;
  port : int;  (** 0 picks a free port (see [on_ready]) *)
  pool : Runtime.Pool.config;
      (** engine / concurrency / trace / fault / certify settings;
          [pool.workers] sizes the scheduler's domain pool *)
  family : [ `Locking | `Mv | `Timestamp ];
  default_level : Isolation.Level.t;
  drain_grace_s : float;
  duration_s : float option;  (** [None] serves until [stop] flips *)
  stop : bool Atomic.t;
  on_ready : int -> unit;  (** called with the bound port once listening *)
  telemetry_port : int option;
      (** also serve a Prometheus text exposition over HTTP here
          (0 picks a free port, see [telemetry_ready]); the same live
          report answers the wire protocol's STATS admin op either way *)
  telemetry_ready : int -> unit;
}

val config :
  ?host:string ->
  ?port:int ->
  ?default_level:Isolation.Level.t ->
  ?drain_grace_s:float ->
  ?duration_s:float ->
  ?stop:bool Atomic.t ->
  ?on_ready:(int -> unit) ->
  ?telemetry_port:int ->
  ?telemetry_ready:(int -> unit) ->
  pool:Runtime.Pool.config ->
  family:[ `Locking | `Mv | `Timestamp ] ->
  unit ->
  config

type stats = Telemetry.Report.server = {
  conns : int;
  sessions : int;
  frames : int;
  protocol_errors : int;
  disconnects : int;  (** injected connection severs (fault plan) *)
  draining : bool;
}

val pp_stats : stats Fmt.t

val serve : config -> Runtime.Pool.result * stats
