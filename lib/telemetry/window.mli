(** Interval telemetry: diff two cumulative readings into per-second
    rates and per-interval latency quantiles.

    All live reporters quote intervals through this one type: the
    in-process samplers build samples with {!of_snapshot}, the wire
    dashboard rebuilds them from STATS JSON with {!of_json}, and both
    feed {!delta}. Counters are cumulative and individually monotone
    (the {!Runtime.Metrics.snapshot} live contract), so a delta is
    meaningful mid-run; because the counter *set* is only approximately
    mutually consistent while workers record, every delta clamps at
    zero. *)

type sample = {
  at : float;  (** unix time the reading was cut *)
  committed : int;
  aborted : int;
  aborted_by : (string * int) list;
      (** abort-reason slug → cumulative count *)
  retries : int;
  giveups : int;
  deadlocks : int;
  stalls : int;
  certifier_aborts : int;
  per_level : (string * int * int * int) list;
      (** level slug → cumulative (committed, aborted, doomed) *)
  lat_hist : int array;
      (** cumulative log₂ latency bucket counts; [[||]] when the source
          carries no histogram (e.g. a loadgen-side sample) *)
  epoch : int;
  epoch_max_ns : int array;
      (** the source's {!Runtime.Metrics.snapshot} epoch and per-epoch
          max latency ring ([0] and [[||]] when it carries none): what
          caps an interval's quantiles at the interval's own max *)
}

val of_snapshot : Runtime.Metrics.snapshot -> sample

val of_json : Trace.Json.t -> sample option
(** Rebuild a sample from a {!Runtime.Metrics.to_json} object (the
    ["metrics"] member of a STATS reply). [None] if the object lacks
    [taken_at] or [committed]; other members default to zero/empty. *)

type rates = {
  interval_s : float;
  d_committed : int;
  d_aborted : int;
  d_aborted_by : (string * int) list;  (** non-zero deltas only *)
  d_retries : int;
  d_giveups : int;
  d_deadlocks : int;
  d_stalls : int;
  d_certifier_aborts : int;
  d_per_level : (string * int * int * int) list;
  commit_rate : float;  (** committed per second over the interval *)
  abort_rate : float;
  lat_p50_ms : float;
      (** latency quantiles of the *interval's* commits (histogram
          delta), capped at the interval's largest commit latency when
          the newer sample's epoch ring covers the interval; 0 when no
          histogram or no commits *)
  lat_p99_ms : float;
}

val delta : sample -> sample -> rates
(** [delta older newer]. Negative raw deltas (possible only across
    samples of different runs) clamp to zero. *)

val pp_rates : rates Fmt.t
(** One compact interval line, as printed by [loadgen --progress]. *)
