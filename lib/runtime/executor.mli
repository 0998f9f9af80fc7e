(** Deterministic step driver over the pool's step interface.

    A schedule is a sequence of transaction ids; each entry is one
    {!Pool.exec_step} of that transaction's next operation, on the calling
    thread, so a scripted interleaving takes the same path (stripes,
    incremental waits-for graph, deadlock break) as a batch worker or a
    server session. Blocked attempts do not consume the operation; the
    wait that would close a waits-for cycle aborts the youngest
    transaction in the cycle (the pool's rule, {!Pool.exec_step}). After
    the explicit schedule, a round-robin drain completes every
    transaction, so every schedule yields a complete history. The same
    inputs always produce the same history.

    @raise Pool.Stuck on engine bugs: an execution that can make no
    progress without a waits-for cycle. *)

module Action = History.Action
module Level = Isolation.Level
module Engine = Core.Engine
module Program = Core.Program

type txn = Action.txn

type status = Committed | Aborted of Engine.abort_reason

val pp_status : status Fmt.t

type config = {
  initial : (Action.key * Action.value) list;
  predicates : Storage.Predicate.t list;
  levels : Level.t list;  (** one per program; transaction ids are 1-based *)
  first_updater_wins : bool;
  next_key_locking : bool;
  update_locks : bool;
  read_only : bool list;  (** per program; missing entries default to false *)
}

val config :
  ?initial:(Action.key * Action.value) list ->
  ?predicates:Storage.Predicate.t list ->
  ?first_updater_wins:bool ->
  ?next_key_locking:bool ->
  ?update_locks:bool ->
  ?read_only:bool list ->
  Level.t list ->
  config

type result = {
  history : History.t;
  final : (Action.key * Action.value) list;
  statuses : (txn * status) list;
  envs : (txn * Program.env) list;
  deadlock_aborts : int;
  blocked_attempts : int;
}

val committed_txns : result -> txn list

val run : config -> Program.t list -> schedule:txn list -> result

val run_serial : config -> Program.t list -> result
(** The trivial serial schedule: each program runs to completion in
    turn. *)
