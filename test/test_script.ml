(* Tests for the mini workload script syntax. *)

module S = Workload.Script
module P = Core.Program

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected script error: %a" S.pp_error e

let ops text =
  match ok (S.parse text) with
  | [ p ] -> p.P.ops
  | ps -> Alcotest.failf "expected one program, got %d" (List.length ps)

let op_shape = function
  | P.Read k -> "r " ^ k
  | P.Write (k, _) -> "w " ^ k
  | P.Insert (k, _) -> "ins " ^ k
  | P.Delete k -> "del " ^ k
  | P.Scan p -> "scan " ^ Storage.Predicate.name p
  | P.Open_cursor { cursor; for_update; _ } ->
    (if for_update then "openu " else "open ") ^ cursor
  | P.Fetch c -> "fetch " ^ c
  | P.Cursor_write (c, _) -> "wc " ^ c
  | P.Close_cursor c -> "close " ^ c
  | P.Commit -> "commit"
  | P.Abort -> "abort"

let shapes text = List.map op_shape (ops text)

let test_reads_writes () =
  Alcotest.(check (list string))
    "plain ops"
    [ "r x"; "w x"; "commit" ]
    (shapes "r x; w x = 5; commit")

let test_increment_desugars () =
  Alcotest.(check (list string))
    "+= reads first"
    [ "r y"; "w y" ]
    (shapes "w y += 40");
  Alcotest.(check (list string))
    "-= reads first"
    [ "r y"; "w y" ]
    (shapes "w y -= 40")

let test_insert_delete_scan () =
  Alcotest.(check (list string))
    "ins/del/scan"
    [ "ins k"; "del k"; "scan emp_*"; "scan All" ]
    (shapes "ins k = 1; del k; scan emp_*; scan *")

let test_cursors () =
  Alcotest.(check (list string))
    "cursor ops"
    [ "open c"; "openu d"; "fetch c"; "wc c"; "close c" ]
    (shapes "open c emp_*; openu d x; fetch c; wc c = 9; close c")

let test_multiple_programs () =
  let ps = ok (S.parse "r x | w x = 1; commit | abort") in
  Alcotest.(check int) "three programs" 3 (List.length ps);
  Alcotest.(check (list string)) "names" [ "T1"; "T2"; "T3" ]
    (List.map (fun p -> p.P.name) ps)

let test_whitespace_tolerant () =
  Alcotest.(check (list string))
    "extra whitespace"
    [ "r x"; "commit" ]
    (shapes "  r   x ;;  commit ; ")

let test_errors () =
  List.iter
    (fun text ->
      match S.parse text with
      | Ok _ -> Alcotest.failf "expected error for %S" text
      | Error _ -> ())
    [ "frobnicate x"; "w x = notanint"; "r"; "wc c 9" ]

let test_predicates_of () =
  let ps = ok (S.parse "scan emp_*; r x | scan emp_*; scan task_*") in
  Alcotest.(check (list string))
    "distinct scan predicates"
    [ "emp_*"; "task_*" ]
    (List.map Storage.Predicate.name (S.predicates_of ps))

let test_parse_initial () =
  Alcotest.(check (list (pair string int)))
    "rows"
    [ ("x", 50); ("y", 50) ]
    (ok (S.parse_initial "x=50, y=50"));
  Alcotest.(check (list (pair string int))) "empty" [] (ok (S.parse_initial ""));
  match S.parse_initial "x=oops" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

(* End to end: the scripted H1 shape reproduces the dirty-read anomaly. *)
let test_end_to_end () =
  let programs = ok (S.parse "r x; w x -= 40; r y; w y += 40 | r x; r y") in
  let cfg =
    Runtime.Executor.config
      ~initial:(ok (S.parse_initial "x=50, y=50"))
      [ Isolation.Level.Read_uncommitted; Isolation.Level.Read_uncommitted ]
  in
  (* Schedule T2's reads between T1's write of x and write of y. Each
     transaction has 7 and 3 attempts respectively ('+='/'-=' desugar to
     read-then-write, plus auto-commit). *)
  let r =
    Runtime.Executor.run cfg programs ~schedule:[ 1; 1; 1; 2; 2; 2; 1; 1; 1; 1 ]
  in
  Alcotest.(check bool) "dirty read observed" true
    (Phenomena.Detect.occurs Phenomena.Phenomenon.P1 r.Runtime.Executor.history)

let suite =
  [
    Alcotest.test_case "reads and writes" `Quick test_reads_writes;
    Alcotest.test_case "increments desugar" `Quick test_increment_desugars;
    Alcotest.test_case "insert, delete, scan" `Quick test_insert_delete_scan;
    Alcotest.test_case "cursors" `Quick test_cursors;
    Alcotest.test_case "multiple programs" `Quick test_multiple_programs;
    Alcotest.test_case "whitespace tolerant" `Quick test_whitespace_tolerant;
    Alcotest.test_case "errors rejected" `Quick test_errors;
    Alcotest.test_case "predicates_of" `Quick test_predicates_of;
    Alcotest.test_case "parse_initial" `Quick test_parse_initial;
    Alcotest.test_case "end to end" `Quick test_end_to_end;
  ]
