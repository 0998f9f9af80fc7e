(* The reproduction sections of the bench harness: one per table and
   figure of the paper, each printing the paper's matrix next to the
   empirically regenerated one and demonstrating the claims on live
   engines. *)

module P = Phenomena.Phenomenon
module L = Isolation.Level
module Spec = Isolation.Spec
module Lattice = Isolation.Lattice
module Classify = Sim.Classify
module Report = Sim.Report
module Executor = Runtime.Executor
module PH = Workload.Paper_histories

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let sub title = Printf.printf "\n-- %s --\n" title

(* Table 1: the original ANSI matrix, and the §3 demonstration that its
   strict reading under-constrains: H1-H3 are non-serializable histories
   that ANOMALY SERIALIZABLE admits. *)
let table1 () =
  header "TABLE 1 - ANSI SQL isolation levels, original three phenomena";
  let headers = "Isolation level" :: List.map P.name Spec.table1_columns in
  let rows =
    List.map
      (fun l ->
        Spec.ansi_level_name l
        :: List.map
             (fun p -> Report.possibility_cell (Spec.table1 l p))
             Spec.table1_columns)
      Spec.ansi_levels
  in
  print_string (Report.render ~headers ~rows);
  sub "why the strict (anomaly) reading fails (paper section 3)";
  List.iter
    (fun ph ->
      let hist = ph.PH.history in
      let strict = List.filter P.is_strict (Phenomena.Detect.exhibited hist) in
      let admitted_by =
        List.filter
          (fun l ->
            List.for_all
              (fun p -> not (Phenomena.Detect.occurs p hist))
              (Spec.ansi_forbidden l))
          Spec.ansi_levels
      in
      Printf.printf
        "%s: %s\n  serializable: %b; strict anomalies present: %s\n  admitted under the strict reading by: %s\n"
        ph.PH.name ph.PH.text
        (History.Conflict.is_serializable hist)
        (if strict = [] then "none" else String.concat ", " (List.map P.name strict))
        (String.concat ", " (List.map Spec.ansi_level_name admitted_by)))
    [ PH.h1; PH.h2; PH.h3 ];
  Printf.printf
    "=> every ANSI level including ANOMALY SERIALIZABLE admits these\n   non-serializable histories; the broad interpretations (P1, P2, P3)\n   exclude them (Remark 4).\n"

(* Table 2: the lock protocols, printed as the paper words them, and the
   check that each locking level's empirical anomaly row matches Table 4
   (Remark 6: the lock protocols and the phenomena definitions agree). *)
let table2 () =
  header "TABLE 2 - degrees of consistency and locking isolation levels";
  let headers = [ "Consistency level"; "Read locks"; "Write locks" ] in
  let rows =
    List.map
      (fun level ->
        let p = Locking.Protocol.for_level_exn level in
        let reads, writes = Locking.Protocol.describe p in
        let name =
          match L.degree level with
          | Some d -> Printf.sprintf "Degree %d = %s" d (L.name level)
          | None -> L.name level
        in
        [ name; reads; writes ])
      Locking.Protocol.locking_levels
  in
  print_string (Report.render ~headers ~rows);
  sub "two-phase discipline, observed from the lock audit log";
  let module Pr = Core.Program in
  List.iter
    (fun level ->
      let engine =
        Core.Engine.create ~initial:[ ("x", 0); ("y", 0); ("z", 0) ]
          ~predicates:[] ~family:`Locking ()
      in
      Core.Engine.begin_txn engine 1 ~level;
      List.iter
        (fun op -> ignore (Core.Engine.step engine 1 op))
        [ Pr.Read "x"; Pr.Scan Storage.Predicate.all; Pr.Read "y";
          Pr.Write ("z", Pr.const 1); Pr.Commit ];
      let log = Option.get (Core.Engine.lock_events engine) in
      let acquired, released = Locking.Discipline.summary log 1 in
      Printf.printf
        "  %-26s two-phase: %-5b (%d locks granted, %d released; theorem          hypothesis holds only for SERIALIZABLE)\n"
        (L.name level)
        (Locking.Discipline.two_phase log 1)
        acquired released)
    Locking.Protocol.locking_levels;
  sub "Remark 6: lock protocols realize exactly the phenomena-based levels";
  let table = Classify.table4 ~levels:Locking.Protocol.locking_levels () in
  print_string (Report.render_classified table);
  let diffs = Classify.diff_with_spec table in
  Printf.printf "cells diverging from the paper: %d\n" (List.length diffs);
  List.iter (fun m -> Format.printf "  %a@." Classify.pp_mismatch m) diffs

(* Table 3: the proposed phenomena-based levels, spec vs empirical. *)
let table3 () =
  header "TABLE 3 - proposed ANSI isolation levels (P0 added, broad readings)";
  sub "paper";
  print_string
    (Report.render_spec ~levels:Spec.table3_rows ~columns:Spec.table3_columns
       Spec.table3);
  sub "measured (every interleaving of every scenario, real engines)";
  let table = Classify.table3 () in
  print_string (Report.render_classified table);
  let diffs = Classify.diff_with_spec table in
  Printf.printf "cells diverging from the paper: %d\n" (List.length diffs)

(* Table 4: the full characterization, spec vs empirical, with scenario
   evidence for the Sometimes cells and a witness schedule each. *)
let table4 () =
  header "TABLE 4 - isolation types characterized by possible anomalies";
  sub "paper";
  print_string
    (Report.render_spec ~levels:L.all ~columns:P.table4 Spec.table4);
  sub "measured (every interleaving of every scenario, real engines)";
  let table = Classify.table4 ~levels:L.all () in
  print_string (Report.render_classified table);
  let diffs = Classify.diff_with_spec table in
  Printf.printf "cells diverging from the paper: %d\n" (List.length diffs);
  List.iter (fun m -> Format.printf "  %a@." Classify.pp_mismatch m) diffs;
  sub "evidence for the Sometimes-Possible cells";
  List.iter
    (fun (level, p) ->
      let c = Classify.cell level p in
      Printf.printf "%s / %s:\n" (L.name level) (P.name p);
      List.iter
        (fun o ->
          Printf.printf "  %-18s %-12s (%d interleavings%s)\n"
            o.Classify.scenario.Workload.Scenario.id
            (if o.Classify.possible then "exhibited" else "impossible")
            o.Classify.explored
            (match o.Classify.witness with
            | Some s ->
              "; witness schedule " ^ String.concat "" (List.map string_of_int s)
            | None -> ""))
        c.Classify.outcomes)
    [ (L.Cursor_stability, P.P4); (L.Cursor_stability, P.P2);
      (L.Cursor_stability, P.A5B); (L.Snapshot, P.P3) ]

(* Figure 2: the isolation hierarchy. *)
let figure2 () =
  header "FIGURE 2 - the isolation hierarchy";
  print_string (Lattice.render_figure ());
  sub "computed Hasse diagram (cell-dominance order)";
  List.iter (fun e -> Format.printf "  %a@." Lattice.pp_edge e) (Lattice.hasse ());
  sub "paper's drawn edges, checked against the computed order";
  List.iter
    (fun e ->
      Format.printf "  %a  consistent=%b@." Lattice.pp_edge e
        (Lattice.edge_consistent e))
    Lattice.figure2_paper_edges;
  sub "incomparable pairs (the paper's >><<)";
  List.iter
    (fun (a, b, only_a, only_b) ->
      Format.printf "  %s >><< %s   (%s uniquely forbids %s; %s uniquely forbids %s)@."
        (L.name a) (L.name b) (L.name a)
        (String.concat "," (List.map P.name only_a))
        (L.name b)
        (String.concat "," (List.map P.name only_b)))
    (Lattice.incomparable_pairs ());
  Printf.printf "Remark 1: %b  Remark 7: %b  Remark 8: %b  Remark 9: %b\n"
    (Lattice.remark_1 ()) (Lattice.remark_7 ()) (Lattice.remark_8 ())
    (Lattice.remark_9 ())

(* The example histories, verbatim, with detector verdicts; H1 and H4 are
   also re-executed live on the engines. *)
let histories () =
  header "EXAMPLE HISTORIES (paper sections 3, 4.1, 4.2)";
  List.iter
    (fun ph ->
      let hist = ph.PH.history in
      let serializable =
        if History.Mv.is_mv hist then History.Mv.is_one_copy_serializable hist
        else History.Conflict.is_serializable hist
      in
      Printf.printf "%-10s %s\n  exhibits: %-18s serializable: %b\n" ph.PH.name
        ph.PH.text
        (match Phenomena.Detect.exhibited hist with
        | [] -> "nothing"
        | ps -> String.concat "," (List.map P.name ps))
        serializable)
    PH.all;
  sub "H1 re-executed live";
  let module Pr = Core.Program in
  let transfer =
    Pr.make ~name:"transfer"
      [ Pr.Read "x"; Pr.Write ("x", Pr.read_plus "x" (-40));
        Pr.Read "y"; Pr.Write ("y", Pr.read_plus "y" 40); Pr.Commit ]
  in
  let audit = Pr.make ~name:"audit" [ Pr.Read "x"; Pr.Read "y"; Pr.Commit ] in
  let sched = [ 1; 1; 2; 2; 2; 1; 1; 1 ] in
  List.iter
    (fun level ->
      let cfg =
        Executor.config ~initial:[ ("x", 50); ("y", 50) ] [ level; level ]
      in
      let r = Executor.run cfg [ transfer; audit ] ~schedule:sched in
      Printf.printf "  %-26s %s\n" (L.name level)
        (History.to_string r.Executor.history
        |> String.map (function '\n' -> ' ' | c -> c)))
    [ L.Read_uncommitted; L.Read_committed; L.Snapshot ];
  Printf.printf
    "  (READ UNCOMMITTED reproduces H1; Snapshot reproduces H1.SI; READ\n   COMMITTED's blocking forces a serializable order.)\n";
  sub "the SI mapping (section 4.2)";
  Printf.printf "  H1.SI      %s\n" (History.to_string PH.h1_si.PH.history
    |> String.map (function '\n' -> ' ' | c -> c));
  Printf.printf "  mapped ->  %s\n"
    (History.to_string (History.Mv.si_to_single_version PH.h1_si.PH.history)
    |> String.map (function '\n' -> ' ' | c -> c));
  Printf.printf "  paper's    %s\n" PH.h1_si_sv.PH.text

(* The §3 recovery argument, executed. *)
let recovery () =
  header "RECOVERY - why P0 must be outlawed (paper section 3)";
  let module Store = Storage.Store in
  let module Wal = Storage.Wal in
  let module Recovery = Storage.Recovery in
  let initial = Store.of_list [ ("x", 0) ] in
  let w = Wal.create () in
  List.iter (Wal.append w)
    [ Wal.Begin 1;
      Wal.Update { t = 1; k = "x"; before = Some 0; after = Some 1 };
      Wal.Begin 2;
      Wal.Update { t = 2; k = "x"; before = Some 1; after = Some 2 };
      Wal.Commit 2 ];
  Format.printf "log: %a@." Wal.pp w;
  Format.printf "ideal post-crash state:      %a@." Store.pp
    (Recovery.ideal_state ~initial w);
  Format.printf "before-image undo recovers:  %a@." Store.pp
    (Recovery.recover ~initial w).Recovery.state;
  Format.printf "recovery correct: %b  (dirty write w1[x] w2[x] poisons undo)@."
    (Recovery.recovery_correct ~initial w);
  let clean = Wal.create () in
  List.iter (Wal.append clean)
    [ Wal.Begin 1;
      Wal.Update { t = 1; k = "x"; before = Some 0; after = Some 1 };
      Wal.Commit 1;
      Wal.Begin 2;
      Wal.Update { t = 2; k = "x"; before = Some 1; after = Some 2 } ];
  Format.printf
    "with long write locks (no P0) the same crash recovers correctly: %b@."
    (Recovery.recovery_correct ~initial clean);
  sub "the recoverability hierarchy view of the same point";
  List.iter
    (fun (label, text) ->
      let hist = History.of_string text in
      Printf.printf "  %-28s %-22s -> %s\n" label text
        (History.Recoverability.class_name
           (History.Recoverability.classify hist)))
    [
      ("serial", "w1[x] c1 r2[x] w2[x] c2");
      ("dirty write (P0)", "w1[x] w2[x] c1 c2");
      ("dirty read (P1)", "w1[x] r2[x] c1 c2");
      ("dirty read, bad order", "w1[x] r2[x] c2 c1");
    ];
  Printf.printf
    "  (forbidding P1 = avoiding cascading aborts; forbidding P0 and P1 =\n\
    \   strictness, the hypothesis of before-image recovery)\n"

(* First-Committer-Wins vs First-Updater-Wins ablation. *)
let ablation () =
  header "ABLATION - First-Committer-Wins vs First-Updater-Wins (SI)";
  let u amount =
    let module Pr = Core.Program in
    Pr.make [ Pr.Read "x"; Pr.Write ("x", Pr.read_plus "x" amount); Pr.Commit ]
  in
  let programs = [ u 30; u 20 ] in
  let sizes = Sim.Interleave.sizes_of_programs programs in
  let stats fuw =
    let aborts = ref 0 and blocked = ref 0 and runs = ref 0 in
    let _, _ =
      Sim.Interleave.count_merges sizes (fun schedule ->
          let cfg =
            Executor.config ~initial:[ ("x", 100) ] ~first_updater_wins:fuw
              [ L.Snapshot; L.Snapshot ]
          in
          let r = Executor.run cfg programs ~schedule in
          incr runs;
          blocked := !blocked + r.Executor.blocked_attempts;
          aborts :=
            !aborts
            + List.length
                (List.filter (fun (_, s) -> s <> Executor.Committed) r.Executor.statuses);
          false)
    in
    (!runs, !aborts, !blocked)
  in
  let runs, fcw_aborts, fcw_blocked = stats false in
  let _, fuw_aborts, fuw_blocked = stats true in
  Printf.printf
    "H4 contention, all %d interleavings:\n\
    \  First-Committer-Wins: %d aborts, %d blocked attempts (conflicts die at commit)\n\
    \  First-Updater-Wins:   %d aborts, %d blocked attempts (conflicts die or wait at write)\n\
     Both policies admit the same Table 4 row (see tests); they differ only\n\
     in when the conflict surfaces.\n"
    runs fcw_aborts fcw_blocked fuw_aborts fuw_blocked

(* U-mode update locks vs plain S-then-X upgrades on for-update
   cursors. *)
let update_locks () =
  header "ABLATION 3 - for-update cursors: U locks vs upgrade deadlocks";
  let module Pr = Core.Program in
  let module Predicate = Storage.Predicate in
  let cursor_add amount =
    Pr.make
      [
        Pr.Open_cursor { cursor = "c"; pred = Predicate.item "x"; for_update = true };
        Pr.Fetch "c";
        Pr.Cursor_write ("c", Pr.read_plus "x" amount);
        Pr.Commit;
      ]
  in
  let programs = [ cursor_add 30; cursor_add 20 ] in
  let sizes = Sim.Interleave.sizes_of_programs programs in
  let stats u =
    let deadlocks = ref 0 and blocked = ref 0 and lost = ref 0 and runs = ref 0 in
    let _ =
      Sim.Interleave.count_merges sizes (fun schedule ->
          let cfg =
            Executor.config ~initial:[ ("x", 100) ] ~update_locks:u
              [ L.Repeatable_read; L.Repeatable_read ]
          in
          let r = Executor.run cfg programs ~schedule in
          incr runs;
          deadlocks := !deadlocks + r.Executor.deadlock_aborts;
          blocked := !blocked + r.Executor.blocked_attempts;
          if
            List.for_all (fun (_, s) -> s = Executor.Committed) r.Executor.statuses
            && List.assoc_opt "x" r.Executor.final <> Some 150
          then incr lost;
          false)
    in
    (!runs, !deadlocks, !blocked, !lost)
  in
  let runs, d0, b0, l0 = stats false in
  let _, d1, b1, l1 = stats true in
  Printf.printf
    "two for-update cursor increments of the same row at REPEATABLE READ,
     all %d interleavings:
    \  S-then-X upgrades: %3d deadlock aborts, %4d blocked attempts, %d lost updates
    \  U-mode locks:      %3d deadlock aborts, %4d blocked attempts, %d lost updates
     => U locks convert every upgrade deadlock into simple blocking; both
    \   variants preserve the update (150).
"
    runs d0 b0 l0 d1 b1 l1

(* Predicate locks vs next-key locks: same guarantees on range
   predicates, different precision. *)
let phantom_guards () =
  header "ABLATION 2 - phantom guards: predicate locks vs next-key locks";
  let module Pr = Core.Program in
  let module Predicate = Storage.Predicate in
  let emp = Predicate.key_prefix ~name:"Emp" "emp_" in
  let scanner = Pr.make [ Pr.Scan emp; Pr.Scan emp; Pr.Commit ] in
  let run ~next_key inserter =
    let programs = [ scanner; inserter ] in
    let sizes = Sim.Interleave.sizes_of_programs programs in
    let blocked = ref 0 and phantoms = ref 0 and runs = ref 0 in
    let _ =
      Sim.Interleave.count_merges sizes (fun schedule ->
          let cfg =
            Executor.config
              ~initial:[ ("emp_a", 1); ("emp_b", 1); ("zzz_sentinel", 0) ]
              ~predicates:[ emp ] ~next_key_locking:next_key
              [ L.Serializable; L.Serializable ]
          in
          let r = Executor.run cfg programs ~schedule in
          incr runs;
          blocked := !blocked + r.Executor.blocked_attempts;
          if Phenomena.Detect.occurs Phenomena.Phenomenon.A3 r.Executor.history
          then incr phantoms;
          false)
    in
    (!runs, !blocked, !phantoms)
  in
  let matching = Pr.make [ Pr.Insert ("emp_c", Pr.const 1); Pr.Commit ] in
  let unrelated = Pr.make [ Pr.Insert ("aaa", Pr.const 1); Pr.Commit ] in
  Printf.printf
    "SERIALIZABLE scanners vs inserters, all interleavings; an insert
     matching the scanned predicate must block either way, but next-key
     locking also blocks unrelated inserts whose successor row is locked:

";
  List.iter
    (fun (label, inserter) ->
      let _, pl_blocked, pl_phantoms = run ~next_key:false inserter in
      let runs, nk_blocked, nk_phantoms = run ~next_key:true inserter in
      Printf.printf
        "  %-24s predicate locks: %4d blocked, %d phantoms | next-key: %4d blocked, %d phantoms  (%d interleavings)
"
        label pl_blocked pl_phantoms nk_blocked nk_phantoms runs)
    [ ("insert inside range", matching); ("insert outside range", unrelated) ];
  Printf.printf
    "=> both guards exclude phantoms entirely; predicate locks are exact
    \   (this engine can evaluate any predicate), next-key locking is what
    \   a B-tree engine can actually implement and pays false conflicts.
"

let all () =
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  figure2 ();
  histories ();
  recovery ();
  ablation ();
  phantom_guards ();
  update_locks ()
