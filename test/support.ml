(* Shared helpers for the test suites: Alcotest testables for library
   types and shorthand constructors. *)

let action = Alcotest.testable History.Action.pp History.Action.equal
let history = Alcotest.list action

let phenomenon =
  Alcotest.testable Phenomena.Phenomenon.pp Phenomena.Phenomenon.equal

let level = Alcotest.testable Isolation.Level.pp Isolation.Level.equal

let possibility =
  Alcotest.testable Isolation.Spec.pp_possibility (fun a b -> a = b)

let exec_status =
  Alcotest.testable Runtime.Executor.pp_status (fun a b -> a = b)

let h = History.of_string

(* Run programs at uniform [level] under a schedule. *)
let run ?(initial = []) ?(predicates = []) ?(first_updater_wins = false) level
    programs schedule =
  let cfg =
    Runtime.Executor.config ~initial ~predicates ~first_updater_wins
      (List.map (fun _ -> level) programs)
  in
  Runtime.Executor.run cfg programs ~schedule

(* Run with one level per program. *)
let run_mixed ?(initial = []) ?(predicates = []) levels programs schedule =
  let cfg = Runtime.Executor.config ~initial ~predicates levels in
  Runtime.Executor.run cfg programs ~schedule

let check_exhibits ~name history expected =
  Alcotest.(check (list phenomenon))
    name
    (List.sort compare expected)
    (List.sort compare
       (List.filter
          (fun p -> List.mem p expected)
          (Phenomena.Detect.exhibited history)))

(* Substring test for rendered-output checks. *)
let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* qcheck-to-alcotest bridge. *)
let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)
