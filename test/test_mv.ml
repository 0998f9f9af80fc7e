(* Tests for multiversion history analysis: the SI-to-single-version
   mapping, the multiversion serialization graph, and the two defining
   rules of Snapshot Isolation. *)

module Mv = History.Mv

let h = Support.h

let h1_si = "r1[x0=50] w1[x1=10] r2[x0=50] r2[y0=50] c2 r1[y0=50] w1[y1=90] c1"

let test_is_mv () =
  Alcotest.(check bool) "H1.SI is multiversion" true (Mv.is_mv (h h1_si));
  Alcotest.(check bool) "H1 is single-version" false
    (Mv.is_mv (h "r1[x=50] w1[x=10] c1"))

(* The paper's own mapping: H1.SI maps exactly to H1.SI.SV. *)
let test_si_to_sv_is_papers () =
  Alcotest.(check Support.history)
    "H1.SI -> H1.SI.SV"
    (h "r1[x=50] r1[y=50] r2[x=50] r2[y=50] c2 w1[x=10] w1[y=90] c1")
    (Mv.si_to_single_version (h h1_si))

let test_si_sv_serializable () =
  Alcotest.(check bool)
    "the mapped history is serializable" true
    (History.Conflict.is_serializable (Mv.si_to_single_version (h h1_si)))

let test_mvsg_h1si () =
  Alcotest.(check bool) "H1.SI is one-copy serializable" true
    (Mv.is_one_copy_serializable (h h1_si))

let test_mvsg_write_skew_cycle () =
  (* H5 read versions are the initial ones; the rw edges form a cycle. *)
  let h5 =
    h "r1[x0=50] r1[y0=50] r2[x0=50] r2[y0=50] w1[y1=-40] w2[x2=-40] c1 c2"
  in
  Alcotest.(check bool) "write skew is not one-copy serializable" false
    (Mv.is_one_copy_serializable h5);
  match Mv.mvsg_cycle h5 with
  | None -> Alcotest.fail "expected an MVSG cycle"
  | Some nodes ->
    Alcotest.(check bool) "cycle spans T1 and T2" true
      (List.mem 1 nodes && List.mem 2 nodes)

let test_version_order () =
  let hist = h "w1[x1=1] c1 w2[x2=2] c2" in
  Alcotest.(check (list int)) "version order" [ 0; 1; 2 ]
    (Mv.version_order hist "x")

let test_version_order_commit_order_not_write_order () =
  (* T2 writes first but commits second. *)
  let hist = h "w2[x2=2] w1[x1=1] c1 c2" in
  Alcotest.(check (list int)) "commit order governs" [ 0; 1; 2 ]
    (Mv.version_order hist "x")

let test_read_version_explicit () =
  let hist = h "w1[x1=1] c1 r2[x1=1] c2" in
  Alcotest.(check bool) "snapshot reads ok" true (Mv.snapshot_reads_respected hist)

let test_snapshot_reads_violation () =
  (* T2 starts before T1 commits but reads T1's version: not a snapshot
     read (T2's snapshot predates T1's commit). *)
  let hist = h "r2[y0=0] w1[x1=1] c1 r2[x1=1] c2" in
  Alcotest.(check bool) "reading a post-snapshot version is flagged" false
    (Mv.snapshot_reads_respected hist)

let test_snapshot_reads_own_write () =
  let hist = h "w1[x1=5] r1[x1=5] c1" in
  Alcotest.(check bool) "own writes are visible" true
    (Mv.snapshot_reads_respected hist)

let test_fcw_ok () =
  (* Sequential writers of x: intervals do not overlap. *)
  let hist = h "w1[x1=1] c1 w2[x2=2] c2" in
  Alcotest.(check bool) "sequential writers pass" true
    (Mv.first_committer_wins_respected hist)

let test_fcw_violation () =
  (* Concurrent committed writers of the same item. *)
  let hist = h "w1[x1=1] w2[x2=2] c1 c2" in
  Alcotest.(check bool) "concurrent writers flagged" false
    (Mv.first_committer_wins_respected hist)

let test_fcw_aborted_writer_ok () =
  let hist = h "w1[x1=1] w2[x2=2] a1 c2" in
  Alcotest.(check bool) "aborted writer is no conflict" true
    (Mv.first_committer_wins_respected hist)

let test_fcw_disjoint_items_ok () =
  let hist = h "w1[x1=1] w2[y2=2] c1 c2" in
  Alcotest.(check bool) "disjoint write sets pass" true
    (Mv.first_committer_wins_respected hist)

(* Every trace the SI engine produces satisfies both SI rules and, for H4,
   aborts the second committer. *)
let test_si_engine_trace_obeys_rules () =
  let module P = Core.Program in
  let u amount =
    P.make
      [ P.Read "x"; P.Write ("x", P.read_plus "x" amount); P.Commit ]
  in
  let r =
    Support.run ~initial:[ ("x", 100) ] Isolation.Level.Snapshot
      [ u 30; u 20 ] [ 1; 2; 2; 2; 1; 1 ]
  in
  Alcotest.(check bool) "snapshot reads" true
    (Mv.snapshot_reads_respected r.Runtime.Executor.history);
  Alcotest.(check bool) "first-committer-wins" true
    (Mv.first_committer_wins_respected r.Runtime.Executor.history)

let suite =
  [
    Alcotest.test_case "is_mv" `Quick test_is_mv;
    Alcotest.test_case "SI mapping matches the paper" `Quick
      test_si_to_sv_is_papers;
    Alcotest.test_case "mapped history is serializable" `Quick
      test_si_sv_serializable;
    Alcotest.test_case "H1.SI one-copy serializable" `Quick test_mvsg_h1si;
    Alcotest.test_case "write skew has an MVSG cycle" `Quick
      test_mvsg_write_skew_cycle;
    Alcotest.test_case "version order" `Quick test_version_order;
    Alcotest.test_case "version order follows commits" `Quick
      test_version_order_commit_order_not_write_order;
    Alcotest.test_case "explicit read versions" `Quick test_read_version_explicit;
    Alcotest.test_case "post-snapshot reads flagged" `Quick
      test_snapshot_reads_violation;
    Alcotest.test_case "own writes visible" `Quick test_snapshot_reads_own_write;
    Alcotest.test_case "FCW: sequential writers pass" `Quick test_fcw_ok;
    Alcotest.test_case "FCW: concurrent writers flagged" `Quick test_fcw_violation;
    Alcotest.test_case "FCW: aborted writer ignored" `Quick
      test_fcw_aborted_writer_ok;
    Alcotest.test_case "FCW: disjoint write sets pass" `Quick
      test_fcw_disjoint_items_ok;
    Alcotest.test_case "SI engine traces obey both rules" `Quick
      test_si_engine_trace_obeys_rules;
  ]
