(** The live serializability oracle: after a parallel run, the recorded
    history is handed to the paper's machinery — well-formedness, the
    conflict-serializability test (MVSG / one-copy serializability for
    multiversion traces) and every phenomenon detector (P0–P4, P4C,
    A1–A3, A5A, A5B). At a serializable level a correct engine must come
    back {!clean}; at weaker levels the verdict documents exactly which
    anomalies the concurrency actually produced.

    The detectors match the paper's single-version templates, so the
    verdict distinguishes {!patterns} from {!anomalies}: a locking
    scheduler prevents the P0–P3 patterns outright (Remark 5), while
    timestamp-ordering and multiversion schedulers admit pattern
    instances in perfectly serializable executions — the paper's central
    observation. On multiversion traces witnesses are additionally
    refined with the recorded version information (a snapshot read of an
    old version is not a dirty or fuzzy read; a "lost" update is only
    lost if the overwritten writer committed), following §4.2's argument
    that Snapshot Isolation cannot be judged in single-version
    vocabulary.

    Sampling caveat: a stress run is evidence, not proof — it explores
    the interleavings the hardware happened to produce, where the
    deterministic [Sim] enumeration explores all of them on small
    scenarios. The two are complementary: [Sim] validates the theory
    exhaustively at toy scale, the oracle validates the engines at real
    scale. *)

type t = {
  actions : int;
  txns : int;
  committed : int;
  aborted : int;
  well_formed : (unit, string) result;
  multiversion : bool;  (** analyzed with the MV machinery *)
  serializable : bool;
  cycle : History.Action.txn list option;  (** a dependency cycle, if any *)
  phenomena : (Phenomena.Phenomenon.t * int) list;
      (** phenomena present, with witness counts (version-refined on
          multiversion traces) *)
  witnesses : Phenomena.Detect.witness list;
      (** a few, anomalies first, for display *)
}

val check : ?phenomena:Phenomena.Phenomenon.t list -> History.t -> t
(** [phenomena] restricts the detectors. Default: all. The whole history
    is judged: the detectors share one index of it
    ({!Phenomena.Detect.detect_all}) and the dependency graph pairs only
    actions on the same item or predicate, so the check costs the
    history plus the witnesses and edges it finds. *)

val anomalies : t -> (Phenomena.Phenomenon.t * int) list
(** The phenomena that are anomalies proper (A1–A3, P4, P4C, A5A, A5B):
    data actually corrupted or observed inconsistent. *)

val patterns : t -> (Phenomena.Phenomenon.t * int) list
(** The broad P0–P3 template matches. A pattern instance in a
    serializable history is not a bug — non-locking schedulers admit
    them by design — but under a locking scheduler at SERIALIZABLE even
    the patterns must be absent ({!pattern_free}). *)

val clean : t -> bool
(** Well-formed, serializable, and free of every checked anomaly — the
    correctness bar for any engine promising serializability. *)

val pattern_free : t -> bool
(** {!clean} and not even a P0–P3 pattern matched — the stronger bar a
    two-phase-locking SERIALIZABLE execution must meet, since locking
    prevents the patterns themselves. *)

val pp : t Fmt.t

val to_json : t -> string

(** {1 The mixed-level verdict}

    Under a per-transaction level mix there is no run-global bar:
    each detector witness is attributed to its victim role(s)
    ({!Phenomena.Detect.victims}) and judged against the victim's own
    declared level. A Table-4 [Not_possible] cell is a violation;
    anything else is an anomaly the victim's level permits — the
    anomaly × victim-level matrix. The mixed certifier replay
    ({!Certifier.replay} with [~criterion:Mixed]) rides along for the
    cycles no two-transaction template names. *)

type mixed = {
  m_tagged : int;  (** transactions with a declared level *)
  m_matrix : ((Isolation.Level.t * Phenomena.Phenomenon.t) * int) list;
      (** permitted anomalies per committed victim's level *)
  m_violations : ((Isolation.Level.t * Phenomena.Phenomenon.t) * int) list;
      (** attributions forbidden at the victim's own level *)
  m_harmed : int;  (** certifier-replay harm (cycles beyond templates) *)
  m_tolerated : int;  (** certifier-replay cycles harming no member *)
  m_clean : bool;
      (** well-formed, no forbidden attribution, certifier [mixed_ok] —
          every transaction got exactly the protection it declared *)
}

val check_run :
  ?phenomena:Phenomena.Phenomenon.t list ->
  ?levels:(History.Action.txn * Isolation.Level.t) list ->
  History.t ->
  t * mixed option
(** {!check}, and with [levels] also the mixed-level verdict, from one
    detector pass over the history: both read the same witnesses.
    Victims missing from [levels] are judged as SERIALIZABLE (the
    conservative default, matching {!Certifier.note_level}); victims
    that never committed are skipped. *)

val pp_mixed : mixed Fmt.t

val mixed_to_json : mixed -> string
