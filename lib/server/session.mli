(** A server-side session: the per-client state object carrying the
    declared isolation level and the open-transaction handle.

    Each in-transaction request becomes one engine operation via
    {!Runtime.Pool.exec_step}. A blocked step does not sleep its worker:
    the session keeps the operation pending and parks until the pool
    fires the wake its transaction registered at BEGIN (a transaction it
    waits on terminated, or it became a victim). All mutable
    state is owned by the single worker pumping the session at any
    moment — only the inbox is shared with the connection's reader
    thread. *)

type t

val create :
  sid:int ->
  gid:int ->
  conn:int ->
  exec:Runtime.Pool.exec ->
  max_op_retries:int ->
  draining:bool Atomic.t ->
  lookup_pred:(Protocol.pred -> (Storage.Predicate.t, string) result) ->
  send:(req:int -> Protocol.response -> unit) ->
  emit:(tid:int -> Trace.Event.kind -> unit) ->
  on_close:(t -> unit) ->
  kick:(Scheduler.task -> unit) ->
  level:Isolation.Level.t ->
  t
(** [sid] is the wire id (connection-scoped); [gid] the global session
    index, used as the journal job id. [send] must be safe to call from
    any worker (the writer queue locks internally); [emit] routes trace
    events. [on_close] deregisters the session after Session_close.
    [kick] ({!Scheduler.kick}) resumes the session's parked task; the
    pool may call it from any domain. *)

val sid : t -> int
val gid : t -> int
val conn : t -> int
val txns : t -> int

val task : t -> Scheduler.task
val set_task : t -> Scheduler.task -> unit
(** The scheduler task is created from {!pump} after the session exists
    (they reference each other); backpatch it here. *)

val offer : t -> req:int -> Protocol.request -> bool
(** Reader thread: queue a request. [false] if the session closed
    (caller replies with an error itself). Follow with
    {!Scheduler.wake}. *)

val pump : t -> worker:int -> Scheduler.outcome
(** Serve the pending operation and then the inbox; the scheduler's pump
    function. *)

val force_close : t -> worker:int -> unit
(** Abort any open transaction and close without replies — the client
    disconnected or the server is force-draining. Safe to call from a
    pump context only (same ownership rule as {!pump}); the frontend
    wraps it in a synthetic Close when calling cross-thread. *)
