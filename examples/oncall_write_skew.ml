(* Write skew (the paper's A5B / H5), in its classic clinical guise: at
   least one doctor must stay on call. Two doctors each check the roster
   and, seeing two on call, both sign off. Under Snapshot Isolation both
   transactions commit from the same snapshot and the ward is left empty;
   SERIALIZABLE and REPEATABLE READ prevent it.

     dune exec examples/oncall_write_skew.exe *)

module P = Core.Program
module L = Isolation.Level
module Executor = Runtime.Executor

(* 1 = on call, 0 = off. A doctor signs off only if the other is on. *)
let sign_off ~self ~other =
  P.make ~name:(self ^ "-signs-off")
    [
      P.Read "alice"; P.Read "bob";
      P.Write
        ( self,
          fun env ->
            if P.value_of env other = 1 then 0 else P.value_of env self );
      P.Commit;
    ]

let initial = [ ("alice", 1); ("bob", 1) ]

let on_call final =
  List.assoc "alice" final + List.assoc "bob" final

let run level schedule =
  let cfg = Executor.config ~initial [ level; level ] in
  Executor.run cfg
    [ sign_off ~self:"alice" ~other:"bob"; sign_off ~self:"bob" ~other:"alice" ]
    ~schedule

(* Across every interleaving: can the ward be left with nobody on call? *)
let worst_case level =
  let programs =
    [ sign_off ~self:"alice" ~other:"bob"; sign_off ~self:"bob" ~other:"alice" ]
  in
  let sizes = Sim.Interleave.sizes_of_programs programs in
  let worst = ref 2 and aborts = ref 0 and runs = ref 0 in
  let _ =
    Sim.Interleave.count_merges sizes (fun schedule ->
        let r = run level schedule in
        incr runs;
        worst := min !worst (on_call r.Executor.final);
        aborts :=
          !aborts
          + List.length
              (List.filter (fun (_, s) -> s <> Executor.Committed) r.Executor.statuses);
        false)
  in
  (!worst, !aborts, !runs)

let () =
  Printf.printf
    "Hospital rule: at least one of Alice and Bob must be on call.\n\
     Both are on call; both try to sign off after checking the roster.\n\n";
  List.iter
    (fun level ->
      let worst, aborts, runs = worst_case level in
      Printf.printf
        "  %-26s worst case %d on call   (%d aborts across %d interleavings)%s\n"
        (L.name level) worst aborts runs
        (if worst = 0 then "   <- WRITE SKEW" else ""))
    [ L.Read_committed; L.Repeatable_read; L.Serializable; L.Snapshot ];
  Printf.printf "\nThe skew, live under Snapshot Isolation:\n";
  let r = run L.Snapshot [ 1; 1; 2; 2; 1; 2; 1; 2 ] in
  Printf.printf "  %s\n" (History.to_string r.Executor.history);
  Printf.printf "  final roster: alice=%d bob=%d\n"
    (List.assoc "alice" r.Executor.final)
    (List.assoc "bob" r.Executor.final);
  Printf.printf "  write skew (A5B) detected: %b\n"
    (Phenomena.Detect.occurs Phenomena.Phenomenon.A5B r.Executor.history);
  Printf.printf
    "\n\
     Why SI misses it: each doctor's transaction is individually correct\n\
     and First-Committer-Wins only compares WRITE sets - Alice wrote only\n\
     her row, Bob only his. The paper uses exactly this shape (H5) to show\n\
     REPEATABLE READ and Snapshot Isolation are incomparable (Remark 9).\n"
