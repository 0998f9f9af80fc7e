(* Reference implementations for the equivalence tests: the nested-scan
   phenomenon detectors, the all-pairs conflict-edge loop and the
   per-key multiversion serialization graph, exactly as they read before
   the library judges were rewritten over indexes, and the private
   deterministic scheduler that ran before the step driver. The judges
   are slow (cubic to quartic in history length); each reference shares
   no code with the library version it checks, and each test requires
   identical witness lists, edge lists, edge sets or run results from
   both. *)

module Detect = struct
  type witness = Phenomena.Detect.witness = {
    phenomenon : Phenomena.Phenomenon.t;
    t1 : History.Action.txn;
    t2 : History.Action.txn;
    positions : int list;
    note : string;
  }

  module Phenomenon = Phenomena.Phenomenon

  module A = History.Action

  type ctx = {
    arr : A.t array;
    term : A.txn -> int; (* termination position, or max_int while active *)
    commits : A.txn -> bool;
    aborts : A.txn -> bool;
  }

  let context h =
    let arr = Array.of_list h in
    let terms = Hashtbl.create 8 in
    let commits = Hashtbl.create 8 in
    let aborts = Hashtbl.create 8 in
    Array.iteri
      (fun i a ->
        match a with
        | A.Commit t ->
          Hashtbl.replace terms t i;
          Hashtbl.replace commits t ()
        | A.Abort t ->
          Hashtbl.replace terms t i;
          Hashtbl.replace aborts t ()
        | _ -> ())
      arr;
    {
      arr;
      term = (fun t -> Option.value ~default:max_int (Hashtbl.find_opt terms t));
      commits = (fun t -> Hashtbl.mem commits t);
      aborts = (fun t -> Hashtbl.mem aborts t);
    }

  let item_reads ctx =
    Array.to_list ctx.arr
    |> List.mapi (fun i a -> (i, a))
    |> List.filter_map (function i, A.Read r -> Some (i, r) | _ -> None)

  let writes ctx =
    Array.to_list ctx.arr
    |> List.mapi (fun i a -> (i, a))
    |> List.filter_map (function i, A.Write w -> Some (i, w) | _ -> None)

  let pred_reads ctx =
    Array.to_list ctx.arr
    |> List.mapi (fun i a -> (i, a))
    |> List.filter_map (function i, A.Pred_read p -> Some (i, p) | _ -> None)

  (* Does a write affect a predicate read: it declares the predicate, or it
     touches an item the predicate matched when it was evaluated. *)
  let affects (w : A.write) (p : A.pred_read) =
    List.mem p.pname w.wpreds || List.mem w.wk p.pkeys

  let witness phenomenon t1 t2 positions note =
    { phenomenon; t1; t2; positions = List.sort compare positions; note }

  (* P0: w1[x]...w2[x] while T1 is still active. *)
  let detect_p0 ctx =
    List.concat_map
      (fun (i, (w1 : A.write)) ->
        List.filter_map
          (fun (j, (w2 : A.write)) ->
            if i < j && w1.wk = w2.wk && w1.wt <> w2.wt && j < ctx.term w1.wt then
              Some
                (witness Phenomenon.P0 w1.wt w2.wt [ i; j ]
                   (Fmt.str "T%d overwrites T%d's uncommitted write of %s" w2.wt
                      w1.wt w1.wk))
            else None)
          (writes ctx))
      (writes ctx)

  (* P1: w1[x]...r2[x] while T1 is still active. Following the paper's broad
     reading of "data item" (§2.1: a predicate covers a set of items), a
     predicate evaluation that observes an uncommitted write affecting the
     predicate is also a dirty read — without this, forbidding P0-P3 would
     not imply serializability (the locking equivalence of Remark 6 relies
     on READ COMMITTED's short predicate locks blocking exactly these). *)
  let detect_p1 ctx =
    List.concat_map
      (fun (i, (w1 : A.write)) ->
        List.filter_map
          (fun (j, (r2 : A.read)) ->
            if i < j && w1.wk = r2.rk && w1.wt <> r2.rt && j < ctx.term w1.wt then
              Some
                (witness Phenomenon.P1 w1.wt r2.rt [ i; j ]
                   (Fmt.str "T%d reads T%d's uncommitted write of %s" r2.rt w1.wt
                      w1.wk))
            else None)
          (item_reads ctx)
        @ List.filter_map
            (fun (j, (p2 : A.pred_read)) ->
              if i < j && affects w1 p2 && w1.wt <> p2.pt && j < ctx.term w1.wt
              then
                Some
                  (witness Phenomenon.P1 w1.wt p2.pt [ i; j ]
                     (Fmt.str
                        "T%d evaluates %s over T%d's uncommitted write of %s"
                        p2.pt p2.pname w1.wt w1.wk))
              else None)
            (pred_reads ctx))
      (writes ctx)

  (* A1: the P1 pattern where T1 in fact aborts and T2 commits. *)
  let detect_a1 ctx =
    List.filter_map
      (fun w ->
        if ctx.aborts w.t1 && ctx.commits w.t2 then
          Some
            { w with
              phenomenon = Phenomenon.A1;
              note = w.note ^ "; T1 aborts and T2 commits" }
        else None)
      (detect_p1 ctx)

  (* P2: r1[x]...w2[x] while T1 is still active. *)
  let detect_p2 ctx =
    List.concat_map
      (fun (i, (r1 : A.read)) ->
        List.filter_map
          (fun (j, (w2 : A.write)) ->
            if i < j && r1.rk = w2.wk && r1.rt <> w2.wt && j < ctx.term r1.rt then
              Some
                (witness Phenomenon.P2 r1.rt w2.wt [ i; j ]
                   (Fmt.str "T%d modifies %s after T1=T%d read it, before T1 ends"
                      w2.wt r1.rk r1.rt))
            else None)
          (writes ctx))
      (item_reads ctx)

  (* A2: r1[x]...w2[x]...c2...r1[x]...c1. *)
  let detect_a2 ctx =
    List.concat_map
      (fun (i, (r1 : A.read)) ->
        List.concat_map
          (fun (j, (w2 : A.write)) ->
            if not (i < j && r1.rk = w2.wk && r1.rt <> w2.wt) then []
            else
              let c2 = ctx.term w2.wt in
              if not (ctx.commits w2.wt) then []
              else
                List.filter_map
                  (fun (k, (r1' : A.read)) ->
                    if
                      r1'.rt = r1.rt && r1'.rk = r1.rk && j < c2 && c2 < k
                      && ctx.commits r1.rt
                    then
                      Some
                        (witness Phenomenon.A2 r1.rt w2.wt [ i; j; c2; k ]
                           (Fmt.str "T%d rereads %s after T%d's committed update"
                              r1.rt r1.rk w2.wt))
                    else None)
                  (item_reads ctx))
          (writes ctx))
      (item_reads ctx)

  (* P3: r1[P]...w2[y in P] while T1 is still active. *)
  let detect_p3 ctx =
    List.concat_map
      (fun (i, (p1 : A.pred_read)) ->
        List.filter_map
          (fun (j, (w2 : A.write)) ->
            if i < j && w2.wt <> p1.pt && affects w2 p1 && j < ctx.term p1.pt then
              Some
                (witness Phenomenon.P3 p1.pt w2.wt [ i; j ]
                   (Fmt.str
                      "T%d writes %s satisfying predicate %s read by T%d, before \
                       T%d ends"
                      w2.wt w2.wk p1.pname p1.pt p1.pt))
            else None)
          (writes ctx))
      (pred_reads ctx)

  (* A3: r1[P]...w2[y in P]...c2...r1[P]...c1. *)
  let detect_a3 ctx =
    List.concat_map
      (fun (i, (p1 : A.pred_read)) ->
        List.concat_map
          (fun (j, (w2 : A.write)) ->
            if not (i < j && w2.wt <> p1.pt && affects w2 p1) then []
            else
              let c2 = ctx.term w2.wt in
              if not (ctx.commits w2.wt) then []
              else
                List.filter_map
                  (fun (k, (p1' : A.pred_read)) ->
                    if
                      p1'.pt = p1.pt && p1'.pname = p1.pname && j < c2 && c2 < k
                      && ctx.commits p1.pt
                    then
                      Some
                        (witness Phenomenon.A3 p1.pt w2.wt [ i; j; c2; k ]
                           (Fmt.str
                              "T%d re-evaluates %s after T%d's committed \
                               phantom write"
                              p1.pt p1.pname w2.wt))
                    else None)
                  (pred_reads ctx))
          (writes ctx))
      (pred_reads ctx)

  (* P4: r1[x]...w2[x]...w1[x]...c1 — T1's update is based on a stale read,
     wiping T2's intervening update. *)
  let detect_p4_generic phenomenon ~require_cursor ctx =
    List.concat_map
      (fun (i, (r1 : A.read)) ->
        if require_cursor && not r1.rcursor then []
        else
          List.concat_map
            (fun (j, (w2 : A.write)) ->
              if not (i < j && w2.wk = r1.rk && w2.wt <> r1.rt) then []
              else
                List.filter_map
                  (fun (k, (w1 : A.write)) ->
                    if
                      j < k && w1.wt = r1.rt && w1.wk = r1.rk
                      && ctx.commits r1.rt
                    then
                      Some
                        (witness phenomenon r1.rt w2.wt [ i; j; k ]
                           (Fmt.str "T%d's update of %s is lost under T%d's"
                              w2.wt r1.rk r1.rt))
                    else None)
                  (writes ctx))
            (writes ctx))
      (item_reads ctx)

  let detect_p4 = detect_p4_generic Phenomenon.P4 ~require_cursor:false
  let detect_p4c = detect_p4_generic Phenomenon.P4C ~require_cursor:true

  (* A5A: r1[x]...w2[x]...w2[y]...c2...r1[y]. T1 reads x before and y after a
     committed update of both by T2 (the order of T2's two writes is
     immaterial to the anomaly, so we accept either). *)
  let detect_a5a ctx =
    List.concat_map
      (fun (i, (r1 : A.read)) ->
        List.concat_map
          (fun (j, (w2x : A.write)) ->
            if not (i < j && w2x.wk = r1.rk && w2x.wt <> r1.rt) then []
            else
              List.concat_map
                (fun (k, (w2y : A.write)) ->
                  if
                    not
                      (w2y.wt = w2x.wt && w2y.wk <> w2x.wk && i < k
                     && ctx.commits w2x.wt)
                  then []
                  else
                    let c2 = ctx.term w2x.wt in
                    List.filter_map
                      (fun (m, (r1y : A.read)) ->
                        if
                          r1y.rt = r1.rt && r1y.rk = w2y.wk && c2 < m && j < c2
                          && k < c2
                        then
                          Some
                            (witness Phenomenon.A5A r1.rt w2x.wt
                               [ i; j; k; c2; m ]
                               (Fmt.str
                                  "T%d reads %s before and %s after T%d's \
                                   committed update of both"
                                  r1.rt r1.rk w2y.wk w2x.wt))
                        else None)
                      (item_reads ctx))
                (writes ctx))
          (writes ctx))
      (item_reads ctx)

  (* A5B: r1[x]...r2[y]...w1[y]...w2[x], both commit. *)
  let detect_a5b ctx =
    List.concat_map
      (fun (i, (r1 : A.read)) ->
        List.concat_map
          (fun (j, (r2 : A.read)) ->
            if not (i < j && r2.rt <> r1.rt && r2.rk <> r1.rk) then []
            else
              List.concat_map
                (fun (k, (w1 : A.write)) ->
                  if not (j < k && w1.wt = r1.rt && w1.wk = r2.rk) then []
                  else
                    List.filter_map
                      (fun (l, (w2 : A.write)) ->
                        if
                          k < l && w2.wt = r2.rt && w2.wk = r1.rk
                          && ctx.commits r1.rt && ctx.commits r2.rt
                        then
                          Some
                            (witness Phenomenon.A5B r1.rt r2.rt [ i; j; k; l ]
                               (Fmt.str
                                  "T%d and T%d cross-update %s and %s from \
                                   stale reads"
                                  r1.rt r2.rt w1.wk w2.wk))
                        else None)
                      (writes ctx))
                (writes ctx))
          (item_reads ctx))
      (item_reads ctx)

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
  let refine_mv h ws =
    let arr = Array.of_list h in
    let committed = Hashtbl.create 16 in
    List.iter (fun t -> Hashtbl.replace committed t ()) (History.committed h);
    let commits t = Hashtbl.mem committed t in
    let read_at p = match arr.(p) with A.Read r -> Some r | _ -> None in
    let pred_at p = match arr.(p) with A.Pred_read pr -> Some pr | _ -> None in
    let minp (w : witness) = List.fold_left min max_int w.positions in
    let maxp (w : witness) = List.fold_left max 0 w.positions in
    let keys_differ a b = List.sort compare a <> List.sort compare b in
    let rereads_differently ~after t k ver =
      Array.exists Fun.id
        (Array.mapi
           (fun p a ->
             p > after
             &&
             match a with
             | A.Read r -> r.A.rt = t && r.A.rk = k && r.A.rver <> ver
                           && r.A.rver <> Some t
             | _ -> false)
           arr)
    in
    let reevaluates_differently ~after t pname keys =
      Array.exists Fun.id
        (Array.mapi
           (fun p a ->
             p > after
             &&
             match a with
             | A.Pred_read pr ->
               pr.A.pt = t && pr.A.pname = pname && keys_differ pr.A.pkeys keys
             | _ -> false)
           arr)
    in
    let keep (w : witness) =
      match w.phenomenon with
      | Phenomenon.P0 | Phenomenon.P4 | Phenomenon.P4C ->
        commits w.t1 && commits w.t2
      | Phenomenon.P1 | Phenomenon.A1 -> (
        match read_at (maxp w) with
        | Some r -> (
          match r.A.rver with Some v -> v = w.t1 | None -> true)
        | None -> false)
      | Phenomenon.P2 -> (
        match read_at (minp w) with
        | Some r -> rereads_differently ~after:(minp w) w.t1 r.A.rk r.A.rver
        | None -> true)
      | Phenomenon.A2 -> (
        match (read_at (minp w), read_at (maxp w)) with
        | Some r, Some r' -> r'.A.rver <> r.A.rver && r'.A.rver <> Some w.t1
        | _ -> true)
      | Phenomenon.P3 -> (
        match pred_at (minp w) with
        | Some pr ->
          reevaluates_differently ~after:(minp w) w.t1 pr.A.pname pr.A.pkeys
        | None -> true)
      | Phenomenon.A3 -> (
        match (pred_at (minp w), pred_at (maxp w)) with
        | Some pr, Some pr' -> keys_differ pr.A.pkeys pr'.A.pkeys
        | _ -> true)
      | Phenomenon.A5A -> (
        match read_at (maxp w) with
        | Some r -> (
          match r.A.rver with Some v -> v = w.t2 | None -> true)
        | None -> true)
      | Phenomenon.A5B -> true
    in
    List.filter keep ws

  let detect_raw phenomenon h =
    let ctx = context h in
    match (phenomenon : Phenomenon.t) with
    | P0 -> detect_p0 ctx
    | P1 -> detect_p1 ctx
    | P2 -> detect_p2 ctx
    | P3 -> detect_p3 ctx
    | A1 -> detect_a1 ctx
    | A2 -> detect_a2 ctx
    | A3 -> detect_a3 ctx
    | P4 -> detect_p4 ctx
    | P4C -> detect_p4c ctx
    | A5A -> detect_a5a ctx
    | A5B -> detect_a5b ctx

  (* Multiversion histories get the version-aware refinement by default,
     so the runtime oracle and deterministic Sim runs over MV traces share
     one detector library. *)
  let detect phenomenon h =
    let ws = detect_raw phenomenon h in
    if ws <> [] && History.Mv.is_mv h then refine_mv h ws else ws

end

module Conflict = struct
  module Action = History.Action
  open History.Conflict

  let classify a b =
    match (a, b) with
    | Action.Write _, Action.Write _ -> Write_write
    | Action.Write _, (Action.Read _ | Action.Pred_read _) -> Write_read
    | (Action.Read _ | Action.Pred_read _), Action.Write _ -> Read_write
    | _ -> assert false

  let project_committed h =
    let committed = History.committed h in
    List.filter (fun a -> List.mem (Action.txn a) committed) h

  let edges h =
    let h = project_committed h in
    let arr = Array.of_list h in
    let n = Array.length arr in
    let acc = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let a = arr.(i) and b = arr.(j) in
        if Action.conflicts a b then
          acc :=
            { src = Action.txn a;
              dst = Action.txn b;
              dep = classify a b;
              src_action = a;
              dst_action = b }
            :: !acc
      done
    done;
    List.rev !acc
end

module Mv = struct
  module Action = History.Action
  module Hist = History
  module Digraph = Graph.Digraph

  let indexed h = Array.of_list h

  (* Committed writers of [k], in commit order; the initial version 0 first. *)
  let version_order h k =
    let committed = Hist.committed h in
    let writers =
      List.filter
        (fun t ->
          List.exists
            (function Action.Write w -> w.wk = k | _ -> false)
            (Hist.actions_of t h))
        committed
    in
    let commit_pos t = Option.value ~default:max_int (Hist.termination_pos h t) in
    0 :: List.sort (fun a b -> compare (commit_pos a) (commit_pos b)) writers

  (* The version a read observes: its explicit annotation if present;
     otherwise the reader's own prior write, if any; otherwise the latest
     version committed before the read's position. *)
  let read_version h pos (r : Action.read) =
    match r.rver with
    | Some v -> v
    | None ->
      let arr = indexed h in
      let own = ref None and last_committed = ref 0 in
      for i = 0 to pos - 1 do
        match arr.(i) with
        | Action.Write w when w.wk = r.rk && w.wt = r.rt -> own := Some w.wt
        | Action.Commit t ->
          (* t's write of rk, if it made one before committing, is now the
             latest committed version. *)
          let wrote =
            List.exists
              (function Action.Write w -> w.wk = r.rk && w.wt = t | _ -> false)
              (Array.to_list (Array.sub arr 0 i))
          in
          if wrote then last_committed := t
        | _ -> ()
      done;
      Option.value ~default:!last_committed !own

  (* Multiversion serialization graph: node 0 is the virtual transaction that
     installed all initial versions.
     - Ti -> Tj when Tj reads a version Ti wrote (wr);
     - Ti -> Tj when x_i precedes x_j in the version order (ww);
     - Tk -> Tj when Tk reads x_i and x_j is a later version (rw). *)
  let mvsg h =
    let hc = Conflict.project_committed h in
    (* one shard: the graph serves a single query *)
    let g = Digraph.create ~shards:1 () in
    Digraph.add_node g 0;
    List.iter (fun t -> Digraph.add_node g t) (Hist.committed h);
    let keys = Hist.keys hc in
    let orders = List.map (fun k -> (k, version_order hc k)) keys in
    let order_of k = Option.value ~default:[ 0 ] (List.assoc_opt k orders) in
    (* ww edges: consecutive versions. *)
    List.iter
      (fun (_, order) ->
        let rec pairs = function
          | a :: (b :: _ as rest) ->
            Digraph.add_edge g a b;
            pairs rest
          | [ _ ] | [] -> ()
        in
        pairs order)
      orders;
    (* wr and rw edges from each committed read. *)
    List.iteri
      (fun pos a ->
        match a with
        | Action.Read r ->
          let i = read_version hc pos r in
          if i <> r.rt then Digraph.add_edge g i r.rt;
          let rec later = function
            | [] -> ()
            | v :: rest ->
              if v <> i then later rest
              else
                List.iter
                  (fun j -> if j <> r.rt then Digraph.add_edge g r.rt j)
                  rest
          in
          later (order_of r.rk)
        | _ -> ())
      hc;
    g


  (* Position of the first action and of the commit of each committed txn. *)
  let interval h t =
    let arr = indexed h in
    let start = ref None and stop = ref None in
    Array.iteri
      (fun i a ->
        if Action.txn a = t then begin
          if !start = None then start := Some i;
          if Action.is_termination a then stop := Some i
        end)
      arr;
    match (!start, !stop) with
    | Some s, Some e -> Some (s, e)
    | Some s, None -> Some (s, Array.length arr)
    | None, _ -> None

  (* Snapshot-read rule. The paper allows the Start-Timestamp to be "any
     time before the transaction's first Read", so the rule is existential:
     for each transaction there must be a single snapshot point, no later
     than its first read, from which every read (not satisfied by its own
     prior writes) observes the latest committed version. *)
  let snapshot_reads_respected h =
    let arr = indexed h in
    (* Latest writer of [k] committed strictly before position [s]. *)
    let committed_version_before k s =
      let version = ref 0 in
      Array.iteri
        (fun i a ->
          if i < s then
            match a with
            | Action.Commit t ->
              let wrote =
                Array.exists
                  (function Action.Write w -> w.wk = k && w.wt = t | _ -> false)
                  (Array.sub arr 0 i)
              in
              if wrote then version := t
            | _ -> ())
        arr;
      !version
    in
    let check_txn t =
      let external_reads =
        Array.to_list arr
        |> List.mapi (fun i a -> (i, a))
        |> List.filter_map (fun (pos, a) ->
               match a with
               | Action.Read r when r.rt = t ->
                 let observed = read_version h pos r in
                 if observed = t then None (* satisfied by an own write *)
                 else Some (pos, r.rk, observed)
               | _ -> None)
      in
      match external_reads with
      | [] -> true
      | (first_pos, _, _) :: _ ->
        let consistent_at s =
          List.for_all
            (fun (_, k, observed) -> committed_version_before k s = observed)
            external_reads
        in
        let rec try_points s = s <= first_pos && (consistent_at s || try_points (s + 1)) in
        try_points 0
    in
    List.for_all check_txn (Hist.txns h)

  (* First-Committer-Wins: no two committed transactions with overlapping
     execution intervals both wrote the same data item (§4.2). *)
  let first_committer_wins_respected h =
    let committed = Hist.committed h in
    let writes t =
      List.filter_map
        (function Action.Write w when w.wt = t -> Some w.wk | _ -> None)
        h
      |> List.sort_uniq compare
    in
    let overlaps t1 t2 =
      match (interval h t1, interval h t2) with
      | Some (s1, e1), Some (s2, e2) -> s1 < e2 && s2 < e1
      | _ -> false
    in
    let rec check = function
      | [] -> true
      | t1 :: rest ->
        List.for_all
          (fun t2 ->
            (not (overlaps t1 t2))
            || List.for_all (fun k -> not (List.mem k (writes t2))) (writes t1))
          rest
        && check rest
    in
    check committed
end

(* The deterministic scheduler as it read before it became a driver over
   the pool's step interface: its own waits-for table, a digraph rebuilt
   on every block, and a victim search over the whole graph. It drives
   the engine directly and shares no code with [Runtime.Executor], whose
   results the equivalence tests compare against it. *)
module Executor = struct
  module Action = History.Action
  module Level = Isolation.Level
  module Digraph = Graph.Digraph
  module Engine = Core.Engine
  module Program = Core.Program

  type txn = Action.txn

  type status = Committed | Aborted of Engine.abort_reason

  let pp_status ppf = function
    | Committed -> Fmt.string ppf "committed"
    | Aborted r -> Fmt.pf ppf "aborted (%a)" Engine.pp_abort_reason r

  type config = {
    initial : (Action.key * Action.value) list;
    predicates : Storage.Predicate.t list;
    levels : Level.t list; (* one per program; transaction ids are 1-based *)
    first_updater_wins : bool;
    next_key_locking : bool;
    update_locks : bool;
    read_only : bool list; (* per program; empty means none *)
  }

  let config ?(initial = []) ?(predicates = []) ?(first_updater_wins = false)
      ?(next_key_locking = false) ?(update_locks = false) ?(read_only = [])
      levels =
    { initial; predicates; levels; first_updater_wins; next_key_locking;
      update_locks; read_only }

  type result = {
    history : History.t;
    final : (Action.key * Action.value) list;
    statuses : (txn * status) list;
    envs : (txn * Program.env) list;
    deadlock_aborts : int;
    blocked_attempts : int;
  }

  let committed_txns r =
    List.filter_map (fun (t, s) -> if s = Committed then Some t else None) r.statuses

  exception Stuck of string

  let run cfg programs ~schedule =
    let n = List.length programs in
    if List.length cfg.levels <> n then
      invalid_arg "Executor.run: one isolation level per program required";
    let levels = Array.of_list cfg.levels in
    let ops =
      Array.of_list
        (List.map
           (fun p ->
             let base = p.Program.ops in
             Array.of_list
               (if Program.terminated p then base else base @ [ Program.Commit ]))
           programs)
    in
    let engine =
      Engine.create ~initial:cfg.initial ~predicates:cfg.predicates
        ~first_updater_wins:cfg.first_updater_wins
        ~next_key_locking:cfg.next_key_locking ~update_locks:cfg.update_locks
        ~family:(Engine.family_of_levels cfg.levels) ()
    in
    let pc = Array.make n 0 in
    let begun = Array.make n false in
    let waits : (txn, txn list) Hashtbl.t = Hashtbl.create 8 in
    let deadlock_aborts = ref 0 in
    let blocked_attempts = ref 0 in
    let finished tid =
      pc.(tid - 1) >= Array.length ops.(tid - 1)
      || (begun.(tid - 1) && Engine.status engine tid <> Engine.Active)
    in
    let waits_cycle () =
      (* one shard: the graph serves a single query *)
      let g = Digraph.create ~shards:1 () in
      Hashtbl.iter
        (fun t holders -> List.iter (fun h -> Digraph.add_edge g t h) holders)
        waits;
      Digraph.find_cycle g
    in
    (* One attempt at [tid]'s next operation. Returns true if the engine
       state changed (progress was made somewhere, including via a deadlock
       abort). *)
    let attempt tid =
      if tid < 1 || tid > n then
        invalid_arg (Fmt.str "Executor.run: schedule names unknown transaction %d" tid);
      if finished tid then false
      else begin
        if not begun.(tid - 1) then begin
          let read_only =
            match List.nth_opt cfg.read_only (tid - 1) with
            | Some flag -> flag
            | None -> false
          in
          Engine.begin_txn ~read_only engine tid ~level:levels.(tid - 1);
          begun.(tid - 1) <- true
        end;
        match Engine.step engine tid ops.(tid - 1).(pc.(tid - 1)) with
        | Engine.Progress ->
          Hashtbl.remove waits tid;
          pc.(tid - 1) <- pc.(tid - 1) + 1;
          true
        | Engine.Finished ->
          Hashtbl.remove waits tid;
          pc.(tid - 1) <- Array.length ops.(tid - 1);
          true
        | Engine.Blocked holders -> (
          incr blocked_attempts;
          Hashtbl.replace waits tid holders;
          match waits_cycle () with
          | None -> false
          | Some cycle ->
            (* Abort the youngest transaction in the cycle. *)
            let victim = List.fold_left max min_int cycle in
            Engine.abort_txn engine victim;
            incr deadlock_aborts;
            Hashtbl.remove waits victim;
            true)
      end
    in
    List.iter (fun tid -> ignore (attempt tid)) schedule;
    (* Drain: round-robin until every transaction terminates. Each full pass
       must make progress — if none does, every active transaction waits on
       an active transaction and the per-block cycle check would have fired,
       so a stuck pass indicates an engine bug. *)
    let all_tids = List.init n (fun i -> i + 1) in
    let rec drain guard =
      if List.exists (fun tid -> not (finished tid)) all_tids then begin
        if guard > 100_000 then raise (Stuck "Executor.run: drain did not converge");
        let progressed =
          List.fold_left (fun acc tid -> attempt tid || acc) false all_tids
        in
        if not progressed then
          raise (Stuck "Executor.run: no progress and no deadlock cycle");
        drain (guard + 1)
      end
    in
    drain 0;
    let statuses =
      List.map
        (fun tid ->
          match Engine.status engine tid with
          | Engine.Committed -> (tid, Committed)
          | Engine.Aborted r -> (tid, Aborted r)
          | Engine.Active -> raise (Stuck "Executor.run: active transaction after drain"))
        all_tids
    in
    {
      history = Engine.trace engine;
      final = Engine.final_state engine;
      statuses;
      envs = List.map (fun tid -> (tid, Engine.env engine tid)) all_tids;
      deadlock_aborts = !deadlock_aborts;
      blocked_attempts = !blocked_attempts;
    }

  (* Run under the trivial serial schedule: T1 to completion, then T2, ... *)
  let run_serial cfg programs =
    let schedule =
      List.concat
        (List.mapi
           (fun i p -> List.init (Program.length p + 1) (fun _ -> i + 1))
           programs)
    in
    run cfg programs ~schedule
end
