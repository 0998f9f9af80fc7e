(* The indexed judges against their nested-scan references
   ({!Reference}): identical witness lists (order included) for all
   eleven phenomena, raw and version-refined; identical conflict-edge
   lists; identical multiversion serialization graphs; identical oracle
   verdicts and cycle witnesses. Inputs: the paper's histories, the
   scenario catalog run under several levels and schedules, and seeded
   random single- and multiversion histories, some over two or three
   items so each carries hundreds of witnesses.

   The step driver ({!Runtime.Executor}) against the private scheduler it
   replaced ({!Reference.Executor}): every catalog scenario under every
   level and every interleaving, and random fuzz workloads, give the same
   history, statuses, final state, envs and counts — except where one
   schedule breaks two or more deadlocks, where the two victim rules may
   part and only the guarantees are compared. *)

module A = History.Action
module P = Phenomena.Phenomenon
module D = Phenomena.Detect
module Ref = Reference
module Digraph = Graph.Digraph
module Oracle = Runtime.Oracle
module L = Isolation.Level

let witnesses = Alcotest.(list (testable D.pp_witness ( = )))

(* {2 Random histories}

   Transactions interleave at random over a few items: item reads (some
   through a cursor), writes (some declaring a predicate), predicate
   reads over a random item set, commits and aborts. A few actions come
   from already-terminated transactions, and some transactions never
   terminate, so ill-formed and incomplete histories are covered too.
   Multiversion histories annotate every write with its writer and every
   read with a version some transaction wrote to that item (or 0). *)

let random_history ~mv ~seed ~txns ~keys ~len =
  let rand = Random.State.make [| seed |] in
  let int n = Random.State.int rand n in
  let pick l = List.nth l (int (List.length l)) in
  let items = List.init keys (fun i -> String.make 1 (Char.chr (97 + i))) in
  let preds = [ "P"; "Q" ] in
  (* four transactions run at once; each one that ends makes room for
     the next, up to [txns] *)
  let live = ref (List.init 4 (fun i -> i + 1)) and ended = ref [] in
  let next = ref 5 in
  let writers = Hashtbl.create 8 in
  let out = ref [] in
  let emit a = out := a :: !out in
  let finish t a =
    live := List.filter (( <> ) t) !live;
    ended := t :: !ended;
    if !next <= txns then begin
      live := !next :: !live;
      incr next
    end;
    emit a
  in
  for _ = 1 to len do
    if !live <> [] then begin
      let t =
        if !ended <> [] && int 30 = 0 then pick !ended else pick !live
      in
      let k = pick items in
      match int 20 with
      | 16 | 17 when List.mem t !live && int 3 = 0 -> finish t (A.commit t)
      | 18 when List.mem t !live && int 3 = 0 -> finish t (A.abort t)
      | n when n >= 8 && n < 13 ->
        let preds = if int 3 = 0 then [ pick preds ] else [] in
        Hashtbl.replace writers k
          (t :: Option.value ~default:[] (Hashtbl.find_opt writers k));
        emit
          (A.write
             ?ver:(if mv then Some t else None)
             ~preds ~cursor:(int 4 = 0) t k)
      | 13 | 14 ->
        emit
          (A.pred_read
             ~keys:(List.filter (fun _ -> int 2 = 0) items)
             t (pick preds))
      | _ ->
        let ver =
          if mv then
            Some (pick (0 :: Option.value ~default:[] (Hashtbl.find_opt writers k)))
          else None
        in
        emit (A.read ?ver ~cursor:(int 4 = 0) t k)
    end
  done;
  List.iter (fun t -> if int 3 > 0 then emit (A.commit t)) !live;
  List.rev !out

(* Seeds 1-7 use two or three items; the rest four to six. *)
let random_cases ~mv =
  List.init 20 (fun i ->
      let seed = i + 1 in
      let keys = if seed <= 7 then 2 + (seed mod 2) else 4 + (seed mod 3) in
      ( Fmt.str "%s seed %d (%d items)" (if mv then "MV" else "SV") seed keys,
        random_history ~mv ~seed ~txns:(8 + (seed mod 4)) ~keys ~len:120 ))

let paper_cases =
  List.map
    (fun (p : Workload.Paper_histories.t) -> (p.name, p.history))
    Workload.Paper_histories.all

(* Each catalog scenario under four levels and three random schedules. *)
let catalog_cases =
  List.concat_map
    (fun (s : Workload.Scenario.t) ->
      List.concat_map
        (fun level ->
          List.map
            (fun seed ->
              let rand = Random.State.make [| seed |] in
              let schedule =
                Workload.Generators.random_schedule ~rand s.programs
              in
              let r =
                Support.run ~initial:s.initial ~predicates:s.predicates level
                  s.programs schedule
              in
              ( Fmt.str "%s at %s, schedule %d" s.id (L.name level) seed,
                r.Runtime.Executor.history ))
            [ 1; 2; 3 ])
        [ L.Degree_0; L.Read_committed; L.Snapshot; L.Serializable ])
    Workload.Catalog.all

(* {2 The comparisons} *)

let same_witnesses (name, h) =
  List.iter
    (fun p ->
      let label what = Fmt.str "%s: %s %s" name (P.name p) what in
      let raw = Ref.Detect.detect_raw p h in
      Alcotest.check witnesses (label "raw") raw (D.detect_raw p h);
      Alcotest.check witnesses (label "refined") (Ref.Detect.refine_mv h raw)
        (D.refine_mv h raw);
      Alcotest.check witnesses (label "detect") (Ref.Detect.detect p h)
        (D.detect p h))
    P.all;
  Alcotest.check
    Alcotest.(list (pair (testable P.pp P.equal) witnesses))
    (name ^ ": detect_all")
    (List.map (fun p -> (p, Ref.Detect.detect p h)) P.all)
    (D.detect_all h)

let edge_tuple (e : History.Conflict.edge) =
  (e.src, e.dst, Fmt.str "%a" History.Conflict.pp_edge e)

let same_edges (name, h) =
  Alcotest.(check (list (triple int int string)))
    (name ^ ": conflict edges")
    (List.map edge_tuple (Ref.Conflict.edges h))
    (List.map edge_tuple (History.Conflict.edges h));
  Alcotest.(check bool)
    (name ^ ": conflict edge records") true
    (Ref.Conflict.edges h = History.Conflict.edges h)

let graph_of g =
  ( Digraph.nodes g,
    List.concat_map
      (fun n -> List.map (fun m -> (n, m)) (Digraph.succs g n))
      (Digraph.nodes g) )

let same_mvsg (name, h) =
  Alcotest.(check (pair (list int) (list (pair int int))))
    (name ^ ": MVSG nodes and edges")
    (graph_of (Ref.Mv.mvsg h))
    (graph_of (History.Mv.mvsg h));
  List.iter
    (fun k ->
      Alcotest.(check (list int))
        (Fmt.str "%s: version order of %s" name k)
        (Ref.Mv.version_order h k)
        (History.Mv.version_order h k))
    (History.keys h)

(* The SI rules; the references are quartic, so on short histories. *)
let same_si_rules (name, h) =
  if List.length h <= 40 then begin
    let sr = Ref.Mv.snapshot_reads_respected h in
    let fcw = Ref.Mv.first_committer_wins_respected h in
    Alcotest.(check bool) (name ^ ": snapshot reads") sr
      (History.Mv.snapshot_reads_respected h);
    Alcotest.(check bool) (name ^ ": first committer wins") fcw
      (History.Mv.first_committer_wins_respected h);
    [ sr; fcw ]
  end
  else []

(* The verdict the oracle gave before the rewrite, from the references:
   the cycle of the reference graph, the reference witness counts and
   the first five witnesses, anomalies first. *)
let reference_verdict h =
  let hits =
    List.filter_map
      (fun p -> match Ref.Detect.detect p h with [] -> None | ws -> Some (p, ws))
      P.all
  in
  let g =
    if History.Mv.is_mv h then Ref.Mv.mvsg h
    else begin
      let g = Digraph.create () in
      List.iter (Digraph.add_node g) (History.committed h);
      List.iter
        (fun (e : History.Conflict.edge) -> Digraph.add_edge g e.src e.dst)
        (Ref.Conflict.edges h);
      g
    end
  in
  let is_anomaly = function
    | P.P0 | P.P1 | P.P2 | P.P3 -> false
    | _ -> true
  in
  let anoms, pats = List.partition (fun (p, _) -> is_anomaly p) hits in
  ( Digraph.find_cycle g,
    List.map (fun (p, ws) -> (p, List.length ws)) hits,
    List.filteri (fun i _ -> i < 5) (List.concat_map snd (anoms @ pats)) )

let same_verdict (name, h) =
  let cycle, counts, shown = reference_verdict h in
  let v = Oracle.check h in
  Alcotest.(check bool) (name ^ ": serializable") (cycle = None)
    v.Oracle.serializable;
  Alcotest.(check (option (list int))) (name ^ ": cycle") cycle v.Oracle.cycle;
  Alcotest.(check (list (pair (testable P.pp P.equal) int)))
    (name ^ ": phenomenon counts") counts v.Oracle.phenomena;
  Alcotest.check witnesses (name ^ ": displayed witnesses") shown
    v.Oracle.witnesses;
  (* One detector pass serves both verdicts. The mixed one attributes
     each reference witness to its committed victims, judged at their
     own levels: the matrix and violations must come out the same. *)
  let levels =
    List.mapi
      (fun i t ->
        (t, List.nth [ L.Read_committed; L.Snapshot; L.Serializable ] (i mod 3)))
      (History.txns h)
  in
  let v', m = Oracle.check_run ~levels h in
  Alcotest.(check string) (name ^ ": check_run verdict")
    (Oracle.to_json v) (Oracle.to_json v');
  let m = Option.get m in
  let permitted = Hashtbl.create 8 and violated = Hashtbl.create 8 in
  List.iter
    (fun p ->
      List.iter
        (fun w ->
          List.iter
            (fun victim ->
              if List.mem victim (History.committed h) then
                let l = List.assoc victim levels in
                let tbl =
                  if Isolation.Spec.table4 l p = Isolation.Spec.Not_possible
                  then violated
                  else permitted
                in
                Hashtbl.replace tbl (l, p)
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tbl (l, p))))
            (D.victims w))
        (Ref.Detect.detect p h))
    P.all;
  let cells tbl =
    List.sort compare
      (Hashtbl.fold
         (fun (l, p) n acc -> ((L.slug l, P.name p), n) :: acc)
         tbl [])
  in
  let named cs =
    List.sort compare
      (List.map (fun ((l, p), n) -> ((L.slug l, P.name p), n)) cs)
  in
  let cell = Alcotest.(list (pair (pair string string) int)) in
  Alcotest.check cell (name ^ ": mixed matrix") (cells permitted)
    (named m.Oracle.m_matrix);
  Alcotest.check cell (name ^ ": mixed violations") (cells violated)
    (named m.Oracle.m_violations)

let all_judges case =
  same_witnesses case;
  same_edges case;
  same_mvsg case;
  ignore (same_si_rules case);
  same_verdict case

let over cases () = List.iter all_judges cases

(* Serializability is decided on a linear skeleton of each graph, and the
   dense random histories above are nearly all cyclic through many
   edges, so they barely test that the skeleton keeps every cycle. Small
   histories of three transactions sit on both sides of the line: on
   each, the verdict must match the reference graph's, and across them
   both verdicts must occur. *)
let test_small_verdicts () =
  let serializable = ref 0 and not_serializable = ref 0 in
  let rules = ref [] in
  List.iter
    (fun mv ->
      for seed = 1 to 400 do
        let h =
          random_history ~mv ~seed ~txns:3 ~keys:(2 + (seed mod 2))
            ~len:(6 + (seed mod 10))
        in
        let cycle, _, _ = reference_verdict h in
        let v = Oracle.check h in
        rules := same_si_rules (Fmt.str "seed %d" seed, h) :: !rules;
        if cycle = None then incr serializable else incr not_serializable;
        Alcotest.(check (option (list int)))
          (Fmt.str "%s seed %d: cycle" (if mv then "MV" else "SV") seed)
          cycle v.Oracle.cycle
      done)
    [ false; true ];
  Alcotest.(check bool)
    (Fmt.str "both verdicts occur (%d serializable, %d not)" !serializable
       !not_serializable)
    true
    (!serializable > 100 && !not_serializable > 100);
  List.iteri
    (fun i rule ->
      let held = List.filter (fun r -> List.nth r i) !rules in
      Alcotest.(check bool)
        (Fmt.str "%s both holds and fails" rule)
        true
        (held <> [] && List.length held < List.length !rules))
    [ "snapshot reads"; "first committer wins" ]

(* The random histories must exercise the detectors at volume, not on a
   handful of matches: those over two or three items carry hundreds of
   witnesses each, and across all of them every phenomenon is found,
   before and after the version refinement. *)
let test_random_volume () =
  let cases = random_cases ~mv:false @ random_cases ~mv:true in
  List.iter
    (fun (name, h) ->
      let n =
        List.fold_left
          (fun acc p -> acc + List.length (Ref.Detect.detect_raw p h))
          0 P.all
      in
      Alcotest.(check bool) (Fmt.str "%s: %d witnesses" name n) true (n >= 200))
    (List.filter (fun (name, _) -> Support.contains_substring ~sub:"(2 items)" name
                                   || Support.contains_substring ~sub:"(3 items)" name)
       cases);
  List.iter
    (fun p ->
      let total detect =
        List.fold_left (fun acc (_, h) -> acc + List.length (detect p h)) 0 cases
      in
      Alcotest.(check bool) (P.name p ^ " found raw") true
        (total Ref.Detect.detect_raw > 0);
      Alcotest.(check bool) (P.name p ^ " found refined") true
        (List.fold_left
           (fun acc (_, h) -> acc + List.length (Ref.Detect.detect p h))
           0 (random_cases ~mv:true)
         > 0))
    P.all

(* {2 The step driver against the private scheduler} *)

module E = Runtime.Executor
module RE = Ref.Executor

let ref_status = function
  | RE.Committed -> E.Committed
  | RE.Aborted r -> E.Aborted r

(* Everything a run is guaranteed to give whatever victim rule broke its
   deadlocks: every transaction terminated, a well-formed history, and
   no phenomenon the (uniform) level forbids. *)
let guarantees ~levels ~n history statuses =
  List.length statuses = n
  && History.is_complete history
  && History.well_formed history = Ok ()
  &&
  match List.sort_uniq compare levels with
  | [ level ] ->
    List.for_all
      (fun p -> not (Phenomena.Detect.occurs p history))
      (Isolation.Spec.forbidden level)
  | _ -> true

(* Run both schedulers on one schedule; [None] when they agree. *)
let driver_mismatch ?(first_updater_wins = false) ?(next_key_locking = false)
    ?(update_locks = false) ~initial ~predicates levels programs schedule =
  let r =
    RE.run
      (RE.config ~initial ~predicates ~first_updater_wins ~next_key_locking
         ~update_locks levels)
      programs ~schedule
  in
  let d =
    E.run
      (E.config ~initial ~predicates ~first_updater_wins ~next_key_locking
         ~update_locks levels)
      programs ~schedule
  in
  let n = List.length programs in
  let why =
    if r.RE.deadlock_aborts <= 1 then
      if d.E.history <> r.RE.history then Some "history"
      else if d.E.statuses <> List.map (fun (t, s) -> (t, ref_status s)) r.RE.statuses
      then Some "statuses"
      else if d.E.final <> r.RE.final then Some "final state"
      else if d.E.envs <> r.RE.envs then Some "envs"
      else if d.E.deadlock_aborts <> r.RE.deadlock_aborts then Some "deadlock aborts"
      else if d.E.blocked_attempts <> r.RE.blocked_attempts then
        Some "blocked attempts"
      else None
    else if not (guarantees ~levels ~n r.RE.history r.RE.statuses) then
      Some "reference guarantees"
    else if not (guarantees ~levels ~n d.E.history d.E.statuses) then
      Some "driver guarantees"
    else None
  in
  Option.map
    (fun what ->
      Fmt.str "%s differs under schedule %s:@.  reference %s@.  driver    %s"
        what
        (String.concat "" (List.map string_of_int schedule))
        (History.to_string r.RE.history)
        (History.to_string d.E.history))
    why

let check_agree name runs =
  let n = ref 0 in
  List.iter
    (fun run ->
      incr n;
      match run () with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" name msg)
    runs;
  !n

(* Every interleaving of every catalog scenario under each level. *)
let catalog_runs ?first_updater_wins ?next_key_locking ?update_locks levels =
  List.concat_map
    (fun (s : Workload.Scenario.t) ->
      let sizes = Sim.Interleave.sizes_of_programs s.programs in
      List.concat_map
        (fun level ->
          let levels = List.map (fun _ -> level) s.programs in
          List.map
            (fun schedule () ->
              Option.map
                (fun m -> Fmt.str "%s at %s: %s" s.id (L.name level) m)
                (driver_mismatch ?first_updater_wins ?next_key_locking
                   ?update_locks ~initial:s.initial ~predicates:s.predicates
                   levels s.programs schedule))
            (Sim.Interleave.merges sizes))
        levels)
    Workload.Catalog.all

(* First-updater-wins is a multiversion engine's policy; the other
   engines ignore the flag, so its runs at their levels would repeat the
   ones without it. *)
let test_driver_catalog () =
  let n = check_agree "catalog" (catalog_runs L.all) in
  Alcotest.(check bool) (Fmt.str "%d runs" n) true (n > 50_000);
  let mv = List.filter (fun l -> Isolation.Level.family l = `Mv) L.all in
  ignore
    (check_agree "first-updater-wins" (catalog_runs ~first_updater_wins:true mv)
      : int)

let test_driver_ablations () =
  let locking = Locking.Protocol.locking_levels in
  ignore
    (check_agree "next-key locking" (catalog_runs ~next_key_locking:true locking)
      : int);
  ignore
    (check_agree "update locks" (catalog_runs ~update_locks:true locking) : int)

(* The fuzz generator's workloads: two to four random programs over
   three keys and a random schedule, under every level. *)
let test_driver_random () =
  let initial = [ ("x", 10); ("y", 20); ("z", 30) ] in
  let predicates = [ Storage.Predicate.all ] in
  let runs =
    List.concat_map
      (fun seed ->
        let rand = Random.State.make [| seed |] in
        let txns = 2 + Random.State.int rand 3 in
        let programs =
          Workload.Generators.random_programs ~rand ~keys:[ "x"; "y"; "z" ]
            ~txns ~ops:4 ()
        in
        let schedule = Workload.Generators.random_schedule ~rand programs in
        List.map
          (fun level () ->
            Option.map
              (fun m -> Fmt.str "seed %d at %s: %s" seed (L.name level) m)
              (driver_mismatch ~initial ~predicates
                 (List.map (fun _ -> level) programs)
                 programs schedule))
          L.all)
      (List.init 2_000 Fun.id)
  in
  ignore (check_agree "random workloads" runs : int)

let suite =
  [
    Alcotest.test_case "paper histories: every judge matches its reference"
      `Quick (over paper_cases);
    Alcotest.test_case "catalog scenarios: every judge matches its reference"
      `Quick (over catalog_cases);
    Alcotest.test_case "random SV histories: every judge matches its reference"
      `Quick (over (random_cases ~mv:false));
    Alcotest.test_case "random MV histories: every judge matches its reference"
      `Quick (over (random_cases ~mv:true));
    Alcotest.test_case "small random histories: the same cycle or none"
      `Quick test_small_verdicts;
    Alcotest.test_case "random histories carry every phenomenon at volume"
      `Quick test_random_volume;
    Alcotest.test_case "step driver matches the private scheduler: catalog"
      `Quick test_driver_catalog;
    Alcotest.test_case "step driver matches the private scheduler: ablations"
      `Quick test_driver_ablations;
    Alcotest.test_case "step driver matches the private scheduler: fuzz"
      `Quick test_driver_random;
  ]
