(** Capped exponential backoff with full jitter, for blocked lock waits
    and transaction restarts. Each waiter sleeps a uniformly random slice
    of the current window, then doubles the window up to the cap — the
    classic recipe that de-synchronizes contending workers instead of
    letting them retry in lockstep. *)

type config = {
  base_us : float;  (** first window, microseconds *)
  cap_us : float;   (** window ceiling *)
  multiplier : float;
}

val default : config
(** 20µs doubling to a 2ms cap. *)

type t

val create : ?rng:Random.State.t -> config -> t
(** A backoff state is owned by one worker; it is not thread-safe. *)

val reset : t -> unit
(** Back to the base window (call after progress). *)

val wait : t -> unit
(** Sleep a jittered slice of the current window and escalate it. *)

val waits : t -> int
(** Total sleeps performed since creation. *)
