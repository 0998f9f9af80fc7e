(* Post-run correctness oracle: the paper's detectors and serializability
   tests applied to the history a parallel run recorded. *)

module P = Phenomena.Phenomenon
module Detect = Phenomena.Detect

let max_display_witnesses = 5

(* The anomaly interpretations — everything but the broad patterns
   P0-P3. A locking scheduler prevents the patterns themselves (Remark
   5's point); optimistic and multiversion schedulers admit the
   patterns while excluding the anomalies, which is the paper's central
   distinction, so only the anomalies dirty a serializable verdict. *)
let is_anomaly = function
  | P.P0 | P.P1 | P.P2 | P.P3 -> false
  | P.A1 | P.A2 | P.A3 | P.P4 | P.P4C | P.A5A | P.A5B -> true

type t = {
  actions : int;
  txns : int;
  committed : int;
  aborted : int;
  well_formed : (unit, string) result;
  multiversion : bool;
  serializable : bool;
  cycle : History.Action.txn list option;
  phenomena : (P.t * int) list;
  witnesses : Detect.witness list;
}

(* The phenomena with at least one witness. {!Detect.detect_all} indexes
   the history once and applies the version-aware refinement itself on
   multiversion histories, so oracle and simulator share one detector
   library ({!Phenomena.Detect.refine_mv}). *)
let hits ~phenomena h =
  List.filter (fun (_, ws) -> ws <> []) (Detect.detect_all ~phenomena h)

let verdict h hits =
  let multiversion = History.Mv.is_mv h in
  let cycle =
    if multiversion then History.Mv.mvsg_cycle h else History.Conflict.cycle h
  in
  {
    actions = List.length h;
    txns = List.length (History.txns h);
    committed = List.length (History.committed h);
    aborted = List.length (History.aborted h);
    well_formed = History.well_formed h;
    multiversion;
    serializable = cycle = None;
    cycle;
    phenomena = List.map (fun (p, ws) -> (p, List.length ws)) hits;
    witnesses =
      (* anomaly witnesses first: they are the ones worth reading *)
      (let anoms, pats = List.partition (fun (p, _) -> is_anomaly p) hits in
       let all = List.concat_map snd (anoms @ pats) in
       List.filteri (fun i _ -> i < max_display_witnesses) all);
  }

let check ?(phenomena = P.all) h = verdict h (hits ~phenomena h)

let anomalies t = List.filter (fun (p, _) -> is_anomaly p) t.phenomena
let patterns t = List.filter (fun (p, _) -> not (is_anomaly p)) t.phenomena
let clean t = t.well_formed = Ok () && t.serializable && anomalies t = []
let pattern_free t = clean t && t.phenomena = []

(* {2 The mixed-level verdict}

   Under a level mix there is no single right-hand side for the run:
   each witness is attributed to its victim role(s)
   ({!Phenomena.Detect.victims}) and judged against the victim's own
   declared level — a Table-4 [Not_possible] cell makes it a violation,
   anything else a permitted anomaly the victim signed up for. Witness
   attribution only covers the named two-transaction templates, so the
   mixed certifier replay rides along for the cycles no template names
   (three-way antidependency rings and longer): its [harmed] count and
   the template violations together decide [m_clean]. Victims that
   never committed are skipped — an aborted transaction's reads carry
   no guarantee — matching the certifier's committed-projection
   scope. *)

module Level = Isolation.Level

type mixed = {
  m_tagged : int;          (* transactions with a declared level *)
  m_matrix : ((Level.t * P.t) * int) list;
                           (* permitted anomaly x committed-victim level *)
  m_violations : ((Level.t * P.t) * int) list;
                           (* forbidden-for-victim attributions *)
  m_harmed : int;          (* certifier-replay harm on long cycles *)
  m_tolerated : int;       (* certifier-replay tolerated cycles *)
  m_clean : bool;
}

let mixed ~levels h hits =
  let committed = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace committed t ()) (History.committed h);
  (* reversed, so a tid's first declared level is the one that stays *)
  let level = Hashtbl.create 64 in
  List.iter (fun (t, l) -> Hashtbl.replace level t l) (List.rev levels);
  let level_of t =
    Option.value ~default:Level.Serializable (Hashtbl.find_opt level t)
  in
  let bump tbl key =
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let permitted = Hashtbl.create 16 and violated = Hashtbl.create 16 in
  List.iter
    (fun (p, ws) ->
      List.iter
        (fun (w : Detect.witness) ->
          List.iter
            (fun v ->
              if Hashtbl.mem committed v then
                let l = level_of v in
                if Isolation.Spec.table4 l p = Isolation.Spec.Not_possible
                then bump violated (l, p)
                else bump permitted (l, p))
            (Detect.victims w))
        ws)
    hits;
  let cells tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun ((l1, p1), _) ((l2, p2), _) ->
           match compare (Level.slug l1) (Level.slug l2) with
           | 0 -> compare (P.name p1) (P.name p2)
           | c -> c)
  in
  let cert = Certifier.replay ~criterion:Certifier.Mixed ~levels h in
  let m_violations = cells violated in
  {
    m_tagged = List.length levels;
    m_matrix = cells permitted;
    m_violations;
    m_harmed = cert.Certifier.harmed;
    m_tolerated = cert.Certifier.tolerated;
    m_clean =
      History.well_formed h = Ok ()
      && m_violations = []
      && cert.Certifier.mixed_ok;
  }

let check_run ?(phenomena = P.all) ?levels h =
  let hits = hits ~phenomena h in
  (verdict h hits, Option.map (fun levels -> mixed ~levels h hits) levels)

let pp_mixed ppf m =
  let fmt_cells cs =
    String.concat ", "
      (List.map
         (fun ((l, p), n) ->
           Fmt.str "%s@%s x%d" (P.name p) (Level.slug l) n)
         cs)
  in
  Fmt.pf ppf
    "@[<v>mixed oracle: %d tagged txns, %d cycle%s tolerated, %d harmed; %s@,\
     permitted: %s@,violations: %s@]"
    m.m_tagged m.m_tolerated
    (if m.m_tolerated = 1 then "" else "s")
    m.m_harmed
    (if m.m_clean then "every victim held its own level" else "MIXED VIOLATION")
    (match m.m_matrix with [] -> "none" | cs -> fmt_cells cs)
    (match m.m_violations with [] -> "none" | cs -> fmt_cells cs)

let mixed_to_json m =
  let cells cs =
    String.concat ","
      (List.map
         (fun ((l, p), n) ->
           Printf.sprintf {|{"level":"%s","anomaly":"%s","count":%d}|}
             (Level.slug l) (P.name p) n)
         cs)
  in
  Printf.sprintf
    {|{"tagged":%d,"tolerated":%d,"harmed":%d,"matrix":[%s],"violations":[%s],"mixed_clean":%b}|}
    m.m_tagged m.m_tolerated m.m_harmed
    (cells m.m_matrix)
    (cells m.m_violations)
    m.m_clean

let pp ppf t =
  Fmt.pf ppf "@[<v>oracle: %d actions, %d txns (%d committed, %d aborted)@,"
    t.actions t.txns t.committed t.aborted;
  (match t.well_formed with
  | Ok () -> Fmt.pf ppf "well-formed: yes@,"
  | Error m -> Fmt.pf ppf "well-formed: NO (%s)@," m);
  Fmt.pf ppf "%s: %b@,"
    (if t.multiversion then "one-copy serializable" else "conflict-serializable")
    t.serializable;
  (match t.cycle with
  | Some cycle ->
    Fmt.pf ppf "dependency cycle: %s@,"
      (String.concat " -> " (List.map (fun x -> "T" ^ string_of_int x) cycle))
  | None -> ());
  let fmt_ps ps =
    String.concat ", "
      (List.map (fun (p, n) -> Fmt.str "%s x%d" (P.name p) n) ps)
  in
  (match patterns t with
  | [] -> ()
  | ps -> Fmt.pf ppf "patterns (templates without the anomaly): %s@," (fmt_ps ps));
  (match anomalies t with
  | [] -> Fmt.pf ppf "anomalies: none"
  | ps ->
    Fmt.pf ppf "anomalies: %s" (fmt_ps ps);
    List.iter (fun w -> Fmt.pf ppf "@,  %a" Detect.pp_witness w) t.witnesses);
  Fmt.pf ppf "@]"

let to_json t =
  let obj ps =
    String.concat ","
      (List.map (fun (p, n) -> Printf.sprintf "%S:%d" (P.name p) n) ps)
  in
  Printf.sprintf
    "{\"actions\":%d,\"txns\":%d,\"committed\":%d,\"aborted\":%d,\
     \"well_formed\":%b,\"multiversion\":%b,\"serializable\":%b,\
     \"patterns\":{%s},\"anomalies\":{%s},\"clean\":%b,\"pattern_free\":%b}"
    t.actions t.txns t.committed t.aborted
    (t.well_formed = Ok ())
    t.multiversion t.serializable
    (obj (patterns t))
    (obj (anomalies t))
    (clean t) (pattern_free t)
