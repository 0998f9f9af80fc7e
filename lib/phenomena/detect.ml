(* Executable detectors for the paper's phenomena and anomalies.

   Each detector scans a history for instances of the corresponding
   template and returns witnesses (the positions of the matching actions).
   The broad interpretations (P0-P3) fire as soon as the offending pattern
   appears while the first transaction is still active — the paper's point
   being precisely that a phenomenon flags a *potential* anomaly; the
   strict interpretations (A1-A3) additionally require the terminations the
   ANSI English demands. *)

type witness = {
  phenomenon : Phenomenon.t;
  t1 : History.Action.txn; (* the template's T1 role *)
  t2 : History.Action.txn;
  positions : int list;    (* positions of the matched actions, ascending *)
  note : string;
}

let pp_witness ppf w =
  Fmt.pf ppf "%s[T%d,T%d at %s]: %s"
    (Phenomenon.name w.phenomenon)
    w.t1 w.t2
    (String.concat "," (List.map string_of_int w.positions))
    w.note

module A = History.Action
module X = History.Index

(* Every detector walks outward from one action through the position
   ranges of a shared {!History.Index} of the history, so its cost is the
   history plus the witnesses found (plus the near misses in those
   ranges). Each loop visits its candidates in the order the template's
   positions ascend, so a witness list comes out in the order a nested
   scan over the whole history gives. *)

let read_at c p = match c.X.arr.(p) with A.Read r -> r | _ -> assert false
let write_at c p = match c.X.arr.(p) with A.Write w -> w | _ -> assert false

let pred_at c p =
  match c.X.arr.(p) with A.Pred_read pr -> pr | _ -> assert false

(* The writes that affect a predicate read: they declare the predicate,
   or they touch an item the predicate matched when it was evaluated. *)
let affecting c (p : A.pred_read) =
  X.at c (Writes_declaring p.pname)
  :: List.map (fun k -> X.at c (Writes_on k)) p.pkeys

(* ... and the predicate reads a write affects. *)
let affected c (w : A.write) =
  X.at c (Pred_reads_on w.wk)
  :: List.map (fun p -> X.at c (Pred_reads_named p)) w.wpreds

let witness phenomenon t1 t2 positions note =
  { phenomenon; t1; t2; positions = List.sort compare positions; note }

let collect f =
  let acc = ref [] in
  f (fun w -> acc := w :: !acc);
  List.rev !acc

(* The broad templates: an action of T1 at [i], then an action of
   another transaction at some [j] in [targets i] — ascending lists taken
   in turn — while T1 is still active. *)
let broad c phenomenon ~from ~targets ~note =
  collect (fun emit ->
      Array.iter
        (fun i ->
          let t1 = A.txn c.X.arr.(i) in
          let stop = X.term c t1 in
          List.iter
            (fun slots ->
              List.iter
                (fun j ->
                  let t2 = A.txn c.X.arr.(j) in
                  if t2 <> t1 then
                    emit (witness phenomenon t1 t2 [ i; j ] (note i j)))
                (X.union_between slots i stop))
            (targets i))
        (X.at c from))

(* P0: w1[x]...w2[x] while T1 is still active. *)
let detect_p0 c =
  broad c Phenomenon.P0 ~from:Writes
    ~targets:(fun i -> [ [ X.at c (Writes_on (write_at c i).wk) ] ])
    ~note:(fun i j ->
      let w1 = write_at c i in
      Fmt.str "T%d overwrites T%d's uncommitted write of %s" (write_at c j).wt
        w1.wt w1.wk)

(* P1: w1[x]...r2[x] while T1 is still active. Following the paper's broad
   reading of "data item" (§2.1: a predicate covers a set of items), a
   predicate evaluation that observes an uncommitted write affecting the
   predicate is also a dirty read — without this, forbidding P0-P3 would
   not imply serializability (the locking equivalence of Remark 6 relies
   on READ COMMITTED's short predicate locks blocking exactly these). The
   item reads come first, then the predicate evaluations. *)
let detect_p1 c =
  broad c Phenomenon.P1 ~from:Writes
    ~targets:(fun i ->
      let w1 = write_at c i in
      [ [ X.at c (Reads_on w1.wk) ]; affected c w1 ])
    ~note:(fun i j ->
      let w1 = write_at c i in
      match c.X.arr.(j) with
      | A.Pred_read p2 ->
        Fmt.str "T%d evaluates %s over T%d's uncommitted write of %s" p2.pt
          p2.pname w1.wt w1.wk
      | a ->
        Fmt.str "T%d reads T%d's uncommitted write of %s" (A.txn a) w1.wt
          w1.wk)

(* A1: the P1 pattern where T1 in fact aborts and T2 commits. *)
let detect_a1 c =
  List.filter_map
    (fun w ->
      if X.at c (Aborts_of w.t1) <> [||] && X.commits c w.t2 then
        Some
          { w with
            phenomenon = Phenomenon.A1;
            note = w.note ^ "; T1 aborts and T2 commits" }
      else None)
    (detect_p1 c)

(* P2: r1[x]...w2[x] while T1 is still active. *)
let detect_p2 c =
  broad c Phenomenon.P2 ~from:Reads
    ~targets:(fun i -> [ [ X.at c (Writes_on (read_at c i).rk) ] ])
    ~note:(fun i j ->
      let r1 = read_at c i in
      Fmt.str "T%d modifies %s after T1=T%d read it, before T1 ends"
        (write_at c j).wt r1.rk r1.rt)

(* P3: r1[P]...w2[y in P] while T1 is still active. *)
let detect_p3 c =
  broad c Phenomenon.P3 ~from:Pred_reads
    ~targets:(fun i -> [ affecting c (pred_at c i) ])
    ~note:(fun i j ->
      let p1 = pred_at c i and w2 = write_at c j in
      Fmt.str
        "T%d writes %s satisfying predicate %s read by T%d, before T%d ends"
        w2.wt w2.wk p1.pname p1.pt p1.pt)

(* The strict templates: T1 reads at [i], another transaction writes
   what that read covers at [j] and commits at c2, and T1 reads again at
   some [k] in [again i] after c2, then commits. The intervening write
   must come before T1's last reread, which bounds the writes visited. *)
let strict c phenomenon ~from ~writes ~again ~note =
  collect (fun emit ->
      Array.iter
        (fun i ->
          let t1 = A.txn c.X.arr.(i) and again = again i in
          if X.commits c t1 then
            List.iter
              (fun j ->
                let w2 = write_at c j in
                let c2 = X.term c w2.wt in
                if w2.wt <> t1 && X.commits c w2.wt && j < c2 then
                  X.between again c2 max_int (fun k ->
                      emit (witness phenomenon t1 w2.wt [ i; j; c2; k ] (note i w2))))
              (X.union_between (writes i) i (X.last again)))
        (X.at c from))

(* A2: r1[x]...w2[x]...c2...r1[x]...c1. *)
let detect_a2 c =
  strict c Phenomenon.A2 ~from:Reads
    ~writes:(fun i -> [ X.at c (Writes_on (read_at c i).rk) ])
    ~again:(fun i ->
      let r1 = read_at c i in
      X.at c (Reads_by (r1.rt, r1.rk)))
    ~note:(fun i w2 ->
      let r1 = read_at c i in
      Fmt.str "T%d rereads %s after T%d's committed update" r1.rt r1.rk w2.wt)

(* A3: r1[P]...w2[y in P]...c2...r1[P]...c1. *)
let detect_a3 c =
  strict c Phenomenon.A3 ~from:Pred_reads
    ~writes:(fun i -> affecting c (pred_at c i))
    ~again:(fun i ->
      let p1 = pred_at c i in
      X.at c (Pred_reads_by (p1.pt, p1.pname)))
    ~note:(fun i w2 ->
      let p1 = pred_at c i in
      Fmt.str "T%d re-evaluates %s after T%d's committed phantom write" p1.pt
        p1.pname w2.wt)

(* P4: r1[x]...w2[x]...w1[x]...c1 — T1's update is based on a stale read,
   wiping T2's intervening update. *)
let detect_p4_generic phenomenon ~require_cursor c =
  collect (fun emit ->
      Array.iter
        (fun i ->
          let r1 = read_at c i in
          if (r1.rcursor || not require_cursor) && X.commits c r1.rt then begin
            let own = X.at c (Writes_by (r1.rt, r1.rk)) in
            X.between (X.at c (Writes_on r1.rk)) i (X.last own) (fun j ->
                let w2 = write_at c j in
                if w2.wt <> r1.rt then
                  X.between own j max_int (fun k ->
                      emit
                        (witness phenomenon r1.rt w2.wt [ i; j; k ]
                           (Fmt.str "T%d's update of %s is lost under T%d's"
                              w2.wt r1.rk r1.rt))))
          end)
        (X.at c Reads))

let detect_p4 = detect_p4_generic Phenomenon.P4 ~require_cursor:false
let detect_p4c = detect_p4_generic Phenomenon.P4C ~require_cursor:true

(* A5A: r1[x]...w2[x]...w2[y]...c2...r1[y]. T1 reads x before and y after a
   committed update of both by T2 (the order of T2's two writes is
   immaterial to the anomaly, so we accept either). T2's commit must
   precede T1's last action, which bounds the writes of x visited. *)
let detect_a5a c =
  collect (fun emit ->
      Array.iter
        (fun i ->
          let r1 = read_at c i in
          let horizon = X.last (X.at c (Actions_of r1.rt)) in
          X.between (X.at c (Writes_on r1.rk)) i horizon (fun j ->
              let w2x = write_at c j in
              let c2 = X.term c w2x.wt in
              if w2x.wt <> r1.rt && X.commits c w2x.wt && j < c2 then
                X.between (X.at c (Writes_of w2x.wt)) i c2 (fun k ->
                    let w2y = write_at c k in
                    if w2y.wk <> w2x.wk then
                      X.between (X.at c (Reads_by (r1.rt, w2y.wk))) c2 max_int
                        (fun m ->
                          emit
                            (witness Phenomenon.A5A r1.rt w2x.wt
                               [ i; j; k; c2; m ]
                               (Fmt.str
                                  "T%d reads %s before and %s after T%d's \
                                   committed update of both"
                                  r1.rt r1.rk w2y.wk w2x.wt))))))
        (X.at c Reads))

(* A5B: r1[x]...r2[y]...w1[y]...w2[x], both commit. Enumerated outward
   from r1 through T1's writes w1[y], the reads r2[y] between r1 and w1,
   then T2's writes of x after w1, and sorted into position order. *)
let detect_a5b c =
  collect (fun emit ->
      Array.iter
        (fun i ->
          let r1 = read_at c i in
          let found = ref [] in
          if X.commits c r1.rt then
            X.between (X.at c (Writes_of r1.rt)) i max_int (fun k ->
                let y = (write_at c k).wk in
                if y <> r1.rk then
                  X.between (X.at c (Reads_on y)) i k (fun j ->
                      let t2 = (read_at c j).rt in
                      if t2 <> r1.rt && X.commits c t2 then
                        X.between (X.at c (Writes_by (t2, r1.rk))) k max_int
                          (fun l -> found := (j, k, l, t2, y) :: !found)));
          List.iter
            (fun (j, k, l, t2, y) ->
              emit
                (witness Phenomenon.A5B r1.rt t2 [ i; j; k; l ]
                   (Fmt.str "T%d and T%d cross-update %s and %s from stale reads"
                      r1.rt t2 y r1.rk)))
            (List.sort compare !found))
        (X.at c Reads))

(* Version-aware refinement for multiversion histories.

   The detectors above match the paper's single-version templates
   positionally. In a multiversion trace a read that positionally
   follows a write may still have returned an older version — a
   snapshot read — in which case the phenomenon did not occur; this is
   exactly §4.2's argument that Snapshot Isolation cannot be judged in
   single-version vocabulary. Each filter below keeps a witness only
   when the recorded versions (or terminations) corroborate the
   anomaly:

   - P0/P4/P4C: versions are private until commit, so an overwrite is
     only real when both transactions commit (what First-Committer-Wins
     forbids).
   - P1/A1: a dirty read must have returned the writer's uncommitted
     version; predicate evaluations run against the snapshot and are
     never dirty.
   - P2/A2, P3/A3: a fuzzy read / phantom must be observed — a later
     read (re-evaluation) by T1 returning a different version (item
     set); reads of T1's own versions do not count.
   - A5A: the second read must actually return T2's version.
   - A5B: write skew is real under SI; kept as matched. *)
let refine c ws =
  let read_opt p = match c.X.arr.(p) with A.Read r -> Some r | _ -> None in
  let pred_opt p = match c.X.arr.(p) with A.Pred_read pr -> Some pr | _ -> None in
  let minp (w : witness) = List.fold_left min max_int w.positions in
  let maxp (w : witness) = List.fold_left max 0 w.positions in
  let keys_differ a b = List.sort compare a <> List.sort compare b in
  let exists_between a lo f =
    let found = ref false in
    X.between a lo max_int (fun p -> if f p then found := true);
    !found
  in
  let rereads_differently ~after t k ver =
    exists_between (X.at c (Reads_by (t, k))) after (fun p ->
        let r = read_at c p in
        r.rver <> ver && r.rver <> Some t)
  in
  let reevaluates_differently ~after t pname keys =
    exists_between (X.at c (Pred_reads_by (t, pname))) after (fun p ->
        keys_differ (pred_at c p).pkeys keys)
  in
  let keep (w : witness) =
    match w.phenomenon with
    | Phenomenon.P0 | Phenomenon.P4 | Phenomenon.P4C ->
      X.commits c w.t1 && X.commits c w.t2
    | Phenomenon.P1 | Phenomenon.A1 -> (
      match read_opt (maxp w) with
      | Some r -> ( match r.rver with Some v -> v = w.t1 | None -> true)
      | None -> false)
    | Phenomenon.P2 -> (
      match read_opt (minp w) with
      | Some r -> rereads_differently ~after:(minp w) w.t1 r.rk r.rver
      | None -> true)
    | Phenomenon.A2 -> (
      match (read_opt (minp w), read_opt (maxp w)) with
      | Some r, Some r' -> r'.rver <> r.rver && r'.rver <> Some w.t1
      | _ -> true)
    | Phenomenon.P3 -> (
      match pred_opt (minp w) with
      | Some pr -> reevaluates_differently ~after:(minp w) w.t1 pr.pname pr.pkeys
      | None -> true)
    | Phenomenon.A3 -> (
      match (pred_opt (minp w), pred_opt (maxp w)) with
      | Some pr, Some pr' -> keys_differ pr.pkeys pr'.pkeys
      | _ -> true)
    | Phenomenon.A5A -> (
      match read_opt (maxp w) with
      | Some r -> ( match r.rver with Some v -> v = w.t2 | None -> true)
      | None -> true)
    | Phenomenon.A5B -> true
  in
  List.filter keep ws

let refine_mv h ws = refine (X.create h) ws

let run c : Phenomenon.t -> witness list = function
  | P0 -> detect_p0 c
  | P1 -> detect_p1 c
  | P2 -> detect_p2 c
  | P3 -> detect_p3 c
  | A1 -> detect_a1 c
  | A2 -> detect_a2 c
  | A3 -> detect_a3 c
  | P4 -> detect_p4 c
  | P4C -> detect_p4c c
  | A5A -> detect_a5a c
  | A5B -> detect_a5b c

let detect_raw phenomenon h = run (X.create h) phenomenon

(* Multiversion histories get the version-aware refinement by default,
   so the runtime oracle and deterministic Sim runs over MV traces share
   one detector library. *)
let detect_in c phenomenon =
  let ws = run c phenomenon in
  if ws <> [] && c.X.versioned then refine c ws else ws

let detect phenomenon h = detect_in (X.create h) phenomenon

let detect_all ?(phenomena = Phenomenon.all) h =
  let c = X.create h in
  List.map (fun p -> (p, detect_in c p)) phenomena

let occurs phenomenon h = detect phenomenon h <> []

let exhibited h =
  List.filter_map (fun (p, ws) -> if ws = [] then None else Some p) (detect_all h)

let matrix h = List.map (fun (p, ws) -> (p, ws <> [])) (detect_all h)

(* Which template role suffers the anomaly — the transaction whose
   isolation guarantee the phenomenon breaks. Dirty reads (P1/A1) hurt
   the reader, which the templates cast as T2; the inconsistent-read
   family (P2/P3, A2/A3, A5A), lost updates (P4/P4C) — where T1's
   update is the one overwritten — hurt T1. Dirty writes (P0) and
   write skew (A5B) are symmetric: both participants' view is broken. *)
let victims (w : witness) =
  match w.phenomenon with
  | Phenomenon.P1 | Phenomenon.A1 -> [ w.t2 ]
  | Phenomenon.P0 | Phenomenon.A5B -> [ w.t1; w.t2 ]
  | Phenomenon.P2 | Phenomenon.A2 | Phenomenon.P3 | Phenomenon.A3
  | Phenomenon.P4 | Phenomenon.P4C | Phenomenon.A5A ->
    [ w.t1 ]
