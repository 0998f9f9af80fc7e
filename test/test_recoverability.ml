(* Tests for the recoverability hierarchy, and its correspondence with
   the paper's P0/P1: engines that forbid dirty reads produce
   cascade-free histories, engines that also forbid dirty writes produce
   strict ones, and Degree 0 can produce unrecoverable ones. *)

module R = History.Recoverability
module P = Core.Program
module L = Isolation.Level

let h = Support.h

let cls = Alcotest.testable R.pp_class ( = )

(* Handwritten classics: *)
let test_classics () =
  (* Reader of uncommitted data commits after its writer: recoverable but
     cascading. *)
  Alcotest.(check cls) "cascading" R.Recoverable
    (R.classify (h "w1[x] r2[x] c1 c2"));
  (* Reader commits before its writer: not even recoverable. *)
  Alcotest.(check cls) "unrecoverable" R.Not_recoverable
    (R.classify (h "w1[x] r2[x] c2 c1"));
  (* Reads only committed data, but overwrites uncommitted data: ACA, not
     strict. *)
  Alcotest.(check cls) "ACA but not strict" R.Aca
    (R.classify (h "w1[x] w2[x] c1 c2"));
  (* Everything waits for writers to finish: strict. *)
  Alcotest.(check cls) "strict" R.Strict
    (R.classify (h "w1[x] c1 r2[x] w2[x] c2"));
  (* The paper's undo dilemma history is not strict. *)
  Alcotest.(check bool) "w1 w2 a1 is not strict" false
    (R.is_strict (h "w1[x] w2[x] a1 c2"))

let test_reads_from_skips_aborted_writers () =
  (* After T1 aborts, its write no longer defines the value T2 reads. *)
  let hist = h "w1[x] a1 r2[x] c2" in
  Alcotest.(check int) "no reads-from edge" 0 (List.length (R.reads_from hist));
  Alcotest.(check cls) "strict" R.Strict (R.classify hist)

(* Engine correspondence. *)
let run_level level programs schedule = Support.run ~initial:[ ("x", 0); ("y", 0) ] level programs schedule

let writer_then_abort = P.make [ P.Write ("x", P.const 1); P.Abort ]
let reader = P.make [ P.Read "x"; P.Commit ]

let test_ru_allows_cascading () =
  let r = run_level L.Read_uncommitted [ writer_then_abort; reader ] [ 1; 2; 2; 1 ] in
  Alcotest.(check bool) "not cascade-free" false
    (R.avoids_cascading_aborts r.Runtime.Executor.history);
  Alcotest.(check bool) "still recoverable? no: reader committed first" false
    (R.is_recoverable r.Runtime.Executor.history)

let test_rc_is_strict () =
  let r = run_level L.Read_committed [ writer_then_abort; reader ] [ 1; 2; 2; 1 ] in
  Alcotest.(check cls) "strict at READ COMMITTED" R.Strict
    (R.classify r.Runtime.Executor.history)

let test_degree0_not_strict () =
  let w1 = P.make [ P.Write ("x", P.const 1); P.Commit ] in
  let w2 = P.make [ P.Write ("x", P.const 2); P.Commit ] in
  let r = run_level L.Degree_0 [ w1; w2 ] [ 1; 2; 1; 2 ] in
  Alcotest.(check bool) "dirty writes break strictness" false
    (R.is_strict r.Runtime.Executor.history)

(* Property: every locking level from READ COMMITTED up produces strict
   histories on random workloads — the paper's Remark 3 rationale. *)
let prop_rc_and_up_strict =
  Support.qtest "RC and stronger locking levels are strict" ~count:200
    QCheck2.Gen.(
      pair (0 -- 1_000_000)
        (oneofl
           L.[ Read_committed; Cursor_stability; Repeatable_read; Serializable ]))
    (fun (seed, level) ->
      let rand = Random.State.make [| seed |] in
      let programs =
        Workload.Generators.random_programs ~rand ~keys:[ "x"; "y"; "z" ]
          ~txns:3 ~ops:4 ()
      in
      let schedule = Workload.Generators.random_schedule ~rand programs in
      let r =
        Support.run
          ~initial:[ ("x", 1); ("y", 2); ("z", 3) ]
          level programs schedule
      in
      R.is_strict r.Runtime.Executor.history)

(* Degree 1 (long write locks, no read locks): cascading reads possible,
   but histories stay recoverable or better only if readers commit after
   their writers — which RU does not enforce, so we only assert writes
   are strict (no dirty writes). *)
let prop_ru_no_dirty_writes =
  Support.qtest "READ UNCOMMITTED never has dirty writes" ~count:200
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let programs =
        Workload.Generators.random_programs ~rand ~keys:[ "x"; "y" ] ~txns:3
          ~ops:4 ()
      in
      let schedule = Workload.Generators.random_schedule ~rand programs in
      let r =
        Support.run ~initial:[ ("x", 1); ("y", 2) ] L.Read_uncommitted
          programs schedule
      in
      not (Phenomena.Detect.occurs Phenomena.Phenomenon.P0 r.Runtime.Executor.history))

let suite =
  [
      Alcotest.test_case "classic classifications" `Quick test_classics;
      Alcotest.test_case "aborted writers invisible to reads-from" `Quick
        test_reads_from_skips_aborted_writers;
      Alcotest.test_case "READ UNCOMMITTED allows cascading" `Quick
        test_ru_allows_cascading;
      Alcotest.test_case "READ COMMITTED is strict" `Quick test_rc_is_strict;
      Alcotest.test_case "Degree 0 is not strict" `Quick test_degree0_not_strict;
      prop_rc_and_up_strict;
      prop_ru_no_dirty_writes;
    ]
