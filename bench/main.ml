(* Bench harness entry point.

   Regenerates every table and figure of "A Critique of ANSI SQL
   Isolation Levels" from the engines in this repository, then measures
   the paper's section 4.2 performance claims with bechamel.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- tables  -- Tables 1-4 only
     dune exec bench/main.exe -- figure  -- Figure 2 only
     dune exec bench/main.exe -- histories | recovery | ablation | perf *)

let () =
  let sections =
    match Array.to_list Sys.argv with
    | _ :: args when args <> [] -> args
    | _ ->
      [ "tables"; "figure"; "histories"; "recovery"; "ablation"; "perf" ]
  in
  List.iter
    (fun section ->
      match section with
      | "tables" ->
        Sections.table1 ();
        Sections.table2 ();
        Sections.table3 ();
        Sections.table4 ()
      | "table1" -> Sections.table1 ()
      | "table2" -> Sections.table2 ()
      | "table3" -> Sections.table3 ()
      | "table4" -> Sections.table4 ()
      | "figure" | "figure2" -> Sections.figure2 ()
      | "histories" -> Sections.histories ()
      | "recovery" -> Sections.recovery ()
      | "ablation" ->
        Sections.ablation ();
        Sections.phantom_guards ();
        Sections.update_locks ()
      | "perf" -> Perf.all ()
      | other ->
        Printf.eprintf
          "unknown section %S (expected \
           tables|table1..4|figure|histories|recovery|ablation|perf)\n"
          other;
        exit 2)
    sections
