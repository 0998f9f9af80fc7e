(* Multiversion (MV) histories (§4.2, [BHG] Chapter 5).

   In an MV history each write of item x by transaction Ti creates version
   x_i, and each read names the version it observed (version 0 being the
   initial database state). This module decides whether such a history is
   one-copy serializable via the multiversion serialization graph, checks
   the two defining rules of Snapshot Isolation (snapshot reads and
   First-Committer-Wins), and implements the paper's mapping of SI
   histories to single-valued histories (H1.SI -> H1.SI.SV). *)

module Digraph = Graph.Digraph

let is_mv h =
  List.exists
    (function
      | Action.Read r -> r.rver <> None
      | Action.Write w -> w.wver <> None
      | _ -> false)
    h

let indexed h = Array.of_list h

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
  let hc = Hist.project_committed h in
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

let is_one_copy_serializable h = Digraph.is_acyclic (mvsg h)
let mvsg_cycle h = Digraph.find_cycle (mvsg h)

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

(* The paper's SI -> single-valued mapping: each transaction's reads are
   emitted at the point of its first action (its snapshot) and its writes
   immediately before its termination, preserving per-transaction order
   within each group and stripping version annotations. Applied to H1.SI
   this yields exactly the paper's H1.SI.SV. *)
let si_to_single_version h =
  let strip = function
    | Action.Read r -> Action.Read { r with rver = None }
    | Action.Write w -> Action.Write { w with wver = None }
    | a -> a
  in
  let reads_of t =
    List.filter_map
      (function
        | (Action.Read r : Action.t) when r.rt = t -> Some (strip (Action.Read r))
        | Action.Pred_read p when p.pt = t -> Some (Action.Pred_read p)
        | _ -> None)
      h
  in
  let writes_of t =
    List.filter_map
      (function
        | (Action.Write w : Action.t) when w.wt = t -> Some (strip (Action.Write w))
        | _ -> None)
      h
  in
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun a ->
      let t = Action.txn a in
      let first =
        if Hashtbl.mem seen t then []
        else begin
          Hashtbl.replace seen t ();
          reads_of t
        end
      in
      match a with
      | Action.Commit _ -> first @ writes_of t @ [ a ]
      | Action.Abort _ -> first @ [ a ]
      | _ -> first)
    h
