(** The runtime's trace recorder.

    The action-level record of a parallel run is the engine's own trace:
    every step executes under the pool's execution latch, so the trace the
    engine accumulates *is* a linearization of what actually happened, and
    {!Pool.result.history} hands it to the oracle unchanged.

    What the engine cannot know is the attempt structure above it — which
    logical job each transaction id belonged to, how often it was
    restarted, on which worker, and how long each attempt took. The
    recorder journals exactly that, into per-worker striped buffers (one
    mutex per worker, so appends never contend) with a global atomic
    sequence number that gives the merged journal a total order. The
    journal lives in memory only: a pool run without history
    ([keep_history = false]) keeps no journal at all. *)

type outcome = Committed | Aborted of Core.Engine.abort_reason

type entry = {
  seq : int;  (** global completion order *)
  job : int;  (** index of the logical job *)
  name : string;
  level : Isolation.Level.t;
  tid : History.Action.txn;  (** transaction id of this attempt *)
  attempt : int;  (** 1-based attempt number for the job *)
  worker : int;
  start_ns : int;
  finish_ns : int;
  outcome : outcome;
}

type t

val create : stripes:int -> t

val record :
  t ->
  job:int ->
  name:string ->
  level:Isolation.Level.t ->
  tid:History.Action.txn ->
  attempt:int ->
  worker:int ->
  start_ns:int ->
  finish_ns:int ->
  outcome ->
  unit

val entries : t -> entry list
(** The merged journal in completion order. Call after workers joined. *)
