(** The session scheduler: a fixed pool of worker domains multiplexing
    many more tasks (sessions) than workers.

    A task is a pump closure plus scheduler-owned state. {!wake} makes a
    task runnable when input arrives; a worker pumps it until it reports
    [`Idle] (inbox drained), [`Park] (blocked — sleep, freeing the
    worker, until {!kick}ed) or [`Yield] (still runnable; requeue behind
    siblings). Parks are untimed: the runtime kicks a parked session
    when a transaction it waits on finishes. A task is pumped by at most
    one worker at a time, which is what lets sessions mutate their own
    state without locks; the wake-while-running and kick-while-running
    races are closed by flags under the scheduler mutex. *)

type outcome = [ `Idle | `Park | `Yield ]

type task

val task : (worker:int -> outcome) -> task
(** Wrap a pump. The [worker] argument is the lane of the domain pumping
    this time (trace-ring binding, heartbeat index). *)

type t

val create : workers:int -> attach:(int -> unit) -> t
(** Spawn [workers] domains. Each calls [attach i] once at startup —
    bind trace rings there ({!Runtime.Pool.exec_attach_worker}). *)

val wake : t -> task -> unit
(** Input arrived: schedule the task if it is idle, or mark it dirty if
    it is currently being pumped. Idempotent. *)

val kick : t -> task -> unit
(** What the task waits on has finished: requeue it if parked; if it is
    being pumped, its next [`Park] requeues instead of sleeping. No
    effect on an idle or already queued task. Safe to call from any
    thread, including under the runtime's stripes: the scheduler mutex
    is a leaf. *)

val active : t -> int
(** Tasks not currently idle (queued, running or parked). *)

type gauges = {
  runnable : int;  (** tasks on the ready queue right now *)
  parked : int;  (** tasks parked on a blocked operation *)
  active_tasks : int;  (** tasks not idle (runnable + parked + running) *)
  wakes : int;  (** cumulative ready-queue pops *)
  wake_ns_total : int;
      (** total enqueue-to-pop latency; [/ wakes] is the mean wake-to-run
          delay, the scheduler's saturation number *)
  wake_ns_max : int;
}

val gauges : t -> gauges
(** One consistent reading under the scheduler mutex; costs what one
    wake costs, so it is safe to scrape at dashboard rates. *)

val quiesce : t -> timeout_s:float -> bool
(** Wait until every task is idle; [false] on timeout. Parked tasks
    count as active — a drain waits for what they are blocked on. *)

val stop : t -> unit
(** Stop and join the workers once the ready queue drains; parked tasks
    are abandoned (quiesce or force-close sessions first). *)
