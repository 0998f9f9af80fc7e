(** Executable detectors for the paper's phenomena and anomalies.

    Broad interpretations (P0–P3) fire as soon as the offending pattern
    appears while the template's T1 is still active; strict interpretations
    (A1–A3) also require the terminations the ANSI English demands. A5A
    accepts T2's two writes in either order (the anomaly does not depend on
    it); everything else follows the paper's templates literally. *)

type witness = {
  phenomenon : Phenomenon.t;
  t1 : History.Action.txn;  (** the template's T1 role *)
  t2 : History.Action.txn;
  positions : int list;     (** positions of the matched actions, ascending *)
  note : string;
}

val pp_witness : witness Fmt.t

val detect : Phenomenon.t -> History.t -> witness list
(** All instances of the phenomenon in the history. On a multiversion
    history (any version-annotated read, {!History.Mv.is_mv}) the
    positional matches are filtered through {!refine_mv}, so a snapshot
    read that positionally follows a write does not count as having
    observed it — §4.2's argument that SI cannot be judged in
    single-version vocabulary. *)

val detect_raw : Phenomenon.t -> History.t -> witness list
(** The purely positional template matches, with no version-aware
    refinement — the paper's single-version reading verbatim. *)

val refine_mv : History.t -> witness list -> witness list
(** Keep only witnesses the recorded versions (or terminations)
    corroborate: P0/P4/P4C need both transactions committed, a dirty
    read must return the writer's version, a fuzzy read / phantom must
    be observed by a later differing read, A5A's second read must
    return T2's version. A5B (write skew) is kept as matched. *)

val detect_all :
  ?phenomena:Phenomenon.t list -> History.t -> (Phenomenon.t * witness list) list
(** {!detect} for each phenomenon (default: all, in {!Phenomenon.all}
    order), over one {!History.Index} of the history. *)

val occurs : Phenomenon.t -> History.t -> bool
val exhibited : History.t -> Phenomenon.t list
val matrix : History.t -> (Phenomenon.t * bool) list

val victims : witness -> History.Action.txn list
(** The template role(s) whose isolation guarantee the phenomenon
    breaks: the reader for dirty reads (P1/A1), T1 for the
    inconsistent-read and lost-update families (P2/P3, A2/A3, A5A,
    P4/P4C), both participants for the symmetric P0 and A5B. The
    mixed-level criterion judges a witness against each victim's own
    declared level. *)
