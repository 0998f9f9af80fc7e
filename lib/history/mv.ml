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

(* Committed writers of every key, in commit order (each writer's first
   termination, its commit in a well-formed history), the initial
   version 0 first. *)
let version_orders x =
  let first_term t =
    Array.to_list (Index.at x (Actions_of t))
    |> List.find (fun p -> Action.is_termination x.Index.arr.(p))
  in
  Hashtbl.fold
    (fun slot ps acc ->
      match slot with
      | Index.Writes_on k ->
        Array.to_list ps
        |> List.map (fun p -> Action.txn x.arr.(p))
        |> List.filter (Index.commits x)
        |> List.sort_uniq compare
        |> List.map (fun t -> (first_term t, t))
        |> List.sort compare
        |> fun order -> (k, 0 :: List.map snd order) :: acc
      | _ -> acc)
    x.slots []

let version_order h k =
  Option.value ~default:[ 0 ] (List.assoc_opt k (version_orders (Index.create h)))

(* Each key's committed versions, latest first, with the first position
   at which each is the latest committed one: a write before its
   writer's commit at [c] is installed from [c + 1] on. [installed k]
   lists them; [latest k s] is the writer installed at position [s]. *)
let installs x =
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter
    (fun slot ps ->
      match slot with
      | Index.Writes_on k ->
        Array.to_list ps
        |> List.concat_map (fun p ->
               let t = Action.txn x.Index.arr.(p) in
               Array.to_list (Index.at x (Commits_of t))
               |> List.filter (fun c -> c > p)
               |> List.map (fun c -> (c + 1, t)))
        |> List.sort_uniq compare |> List.rev
        |> Hashtbl.replace tbl k
      | _ -> ())
    x.slots;
  let installed k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let latest k s =
    match List.find_opt (fun (p, _) -> p <= s) (installed k) with
    | Some (_, t) -> t
    | None -> 0
  in
  (installed, latest)

(* The version each read observes, by position: its explicit annotation
   if present; otherwise the reader's own prior write, if any; otherwise
   the latest version committed before it. *)
let read_versions x =
  let _, latest = installs x in
  Array.mapi
    (fun pos a ->
      match a with
      | Action.Read r ->
        let own = Index.at x (Writes_by (r.rt, r.rk)) in
        Some
          (match r.rver with
          | Some v -> v
          | None -> if own <> [||] && own.(0) < pos then r.rt else latest r.rk pos)
      | _ -> None)
    x.Index.arr

(* Multiversion serialization graph: node 0 is the virtual transaction that
   installed all initial versions.
   - Ti -> Tj when Tj reads a version Ti wrote (wr);
   - Ti -> Tj when x_i precedes x_j in the version order (ww);
   - Tk -> Tj when Tk reads x_i and x_j is a later version (rw) — every
     later one with [every_later], else only the next.
   Built as its node list and a successor function over per-version and
   per-reader tables, so a search can walk it without storing its edges,
   which can be quadratically many (rw, on a hot item). *)
let adjacency ~every_later h =
  let x = Index.create (Hist.project_committed h) in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let find tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  (* each (key, version)'s place in the key's version order *)
  let place = Hashtbl.create 64 and ww = Hashtbl.create 64 in
  List.iter
    (fun (k, order) ->
      let vs = Array.of_list order in
      Array.iteri
        (fun i v ->
          if not (Hashtbl.mem place (k, v)) then
            Hashtbl.replace place (k, v) (vs, i);
          if i > 0 then add ww vs.(i - 1) v)
        vs)
    (version_orders x);
  let wr = Hashtbl.create 64 and reads = Hashtbl.create 64 in
  Array.iter2
    (fun a v ->
      match (a, v) with
      | Action.Read r, Some i ->
        if i <> r.rt then add wr i r.rt;
        add reads r.rt (r.rk, i)
      | _ -> ())
    x.arr (read_versions x);
  let rw n kv =
    match Hashtbl.find_opt place kv with
    | None -> []
    | Some (vs, i) ->
      let stop = if every_later then Array.length vs - 1 else i + 1 in
      List.init (min stop (Array.length vs - 1) - i) (fun d -> vs.(i + 1 + d))
      |> List.filter (( <> ) n)
  in
  let succs n =
    List.sort_uniq compare
      (find ww n @ find wr n @ List.concat_map (rw n) (find reads n))
  in
  let sources = Hashtbl.fold (fun i _ acc -> i :: acc) wr [] in
  (List.sort_uniq compare ((0 :: Hist.committed h) @ sources), succs)

let mvsg h =
  let nodes, succs = adjacency ~every_later:true h in
  let g = Digraph.create () in
  List.iter
    (fun n ->
      Digraph.add_node g n;
      List.iter (Digraph.add_edge g n) (succs n))
    nodes;
  g

(* Acyclicity needs only each read's rw edge to the version right after
   the one it read: the ww chain reaches every later version from there,
   so that graph keeps the MVSG's cycles with a linear number of edges.
   The witness is the full MVSG's own cycle, found without storing it. *)
let is_one_copy_serializable h =
  let nodes, succs = adjacency ~every_later:false h in
  Digraph.find_cycle_by ~nodes ~succs = None

let mvsg_cycle h =
  if is_one_copy_serializable h then None
  else
    let nodes, succs = adjacency ~every_later:true h in
    Digraph.find_cycle_by ~nodes ~succs

(* Snapshot-read rule. The paper allows the Start-Timestamp to be "any
   time before the transaction's first Read", so the rule is existential:
   for each transaction there must be a single snapshot point, no later
   than its first read, from which every read (not satisfied by its own
   prior writes) observes the latest committed version. *)
let snapshot_reads_respected h =
  let x = Index.create h in
  let versions = read_versions x and installed, latest = installs x in
  (* each transaction's reads not satisfied by its own writes *)
  let reads = Hashtbl.create 64 in
  Array.iter
    (fun pos ->
      match (x.arr.(pos), versions.(pos)) with
      | Action.Read r, Some v when v <> r.rt ->
        Hashtbl.replace reads r.rt
          ((pos, r.rk, v)
          :: Option.value ~default:[] (Hashtbl.find_opt reads r.rt))
      | _ -> ())
    (Index.at x Reads);
  (* A snapshot point can only matter where some read key's latest
     version changes, so those points (and 0) are the ones to try. *)
  Hashtbl.fold
    (fun _ rs ok ->
      ok
      &&
      let first_pos = List.fold_left (fun m (p, _, _) -> min m p) max_int rs in
      List.exists
        (fun s ->
          s <= first_pos && List.for_all (fun (_, k, v) -> latest k s = v) rs)
        (0 :: List.concat_map (fun (_, k, _) -> List.map fst (installed k)) rs))
    reads true

(* First-Committer-Wins: no two committed transactions with overlapping
   execution intervals both wrote the same data item (§4.2). *)
let first_committer_wins_respected h =
  let x = Index.create h in
  let span t =
    let ps = Index.at x (Actions_of t) in
    ( ps.(0),
      Array.fold_left
        (fun stop p -> if Action.is_termination x.arr.(p) then p else stop)
        (Array.length x.arr) ps )
  in
  let rec disjoint = function
    | [] -> true
    | (s1, e1) :: rest ->
      List.for_all (fun (s2, e2) -> not (s1 < e2 && s2 < e1)) rest
      && disjoint rest
  in
  Hashtbl.fold
    (fun slot ps ok ->
      ok
      &&
      match slot with
      | Index.Writes_on _ ->
        Array.to_list ps
        |> List.map (fun p -> Action.txn x.arr.(p))
        |> List.filter (Index.commits x)
        |> List.sort_uniq compare |> List.map span |> disjoint
      | _ -> true)
    x.slots true

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
