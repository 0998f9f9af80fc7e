(* The empirical isolation classifier: regenerates the paper's Table 4 by
   brute force. A cell (level, phenomenon) is decided by running every
   interleaving of each of the phenomenon's scenarios with all programs at
   that level and asking the scenario's verdict whether the anomaly
   materialized:

     - no scenario can exhibit it          -> Not Possible
     - every scenario can exhibit it       -> Possible
     - some can, some cannot               -> Sometimes Possible

   which is exactly the paper's usage: Cursor Stability's "Sometimes
   Possible" lost updates are possible on plain reads and impossible
   through a held cursor. *)

module P = Phenomena.Phenomenon
module Level = Isolation.Level
module Spec = Isolation.Spec
module Executor = Runtime.Executor
module Scenario = Workload.Scenario

type scenario_outcome = {
  scenario : Scenario.t;
  possible : bool;        (* some interleaving exhibits the anomaly *)
  witness : int list option; (* a schedule that exhibits it *)
  explored : int;         (* interleavings examined *)
}

type cell = {
  level : Level.t;
  phenomenon : P.t;
  outcomes : scenario_outcome list;
  verdict : Spec.possibility;
}

(* Run one scenario under one level across all interleavings. *)
let run_scenario ?(first_updater_wins = false) ?(next_key_locking = false)
    level (s : Scenario.t) =
  let cfg =
    Executor.config ~initial:s.initial ~predicates:s.predicates
      ~first_updater_wins ~next_key_locking
      (List.map (fun _ -> level) s.programs)
  in
  let sizes = Interleave.sizes_of_programs s.programs in
  let witness = ref None in
  let found, explored =
    Interleave.exists_merge sizes (fun schedule ->
        let r = Executor.run cfg s.programs ~schedule in
        if s.exhibits r then begin
          witness := Some schedule;
          true
        end
        else false)
  in
  { scenario = s; possible = found; witness = !witness; explored }

let verdict_of_outcomes outcomes =
  match outcomes with
  | [] -> invalid_arg "Classify: no scenarios for phenomenon"
  | _ ->
    let possibles = List.filter (fun o -> o.possible) outcomes in
    if possibles = [] then Spec.Not_possible
    else if List.length possibles = List.length outcomes then Spec.Possible
    else Spec.Sometimes_possible

let cell ?first_updater_wins ?next_key_locking level phenomenon =
  let outcomes =
    List.map
      (run_scenario ?first_updater_wins ?next_key_locking level)
      (Workload.Catalog.for_phenomenon phenomenon)
  in
  { level; phenomenon; outcomes; verdict = verdict_of_outcomes outcomes }

(* A full empirical row, over Table 4's columns. *)
let row ?first_updater_wins ?next_key_locking ?(columns = P.table4) level =
  List.map (cell ?first_updater_wins ?next_key_locking level) columns

(* The empirical Table 4 (optionally with extension rows). *)
let table4 ?first_updater_wins ?next_key_locking ?(levels = Level.table4_rows) () =
  List.map (fun l -> (l, row ?first_updater_wins ?next_key_locking l)) levels

(* The empirical Table 3: the four proposed ANSI levels against P0-P3. *)
let table3 ?first_updater_wins ?next_key_locking () =
  List.map
    (fun l ->
      (l, row ?first_updater_wins ?next_key_locking ~columns:Spec.table3_columns l))
    Spec.table3_rows

(* Compare an empirical table against the paper's specification. *)
type mismatch = {
  m_level : Level.t;
  m_phenomenon : P.t;
  expected : Spec.possibility;
  got : Spec.possibility;
}

let pp_mismatch ppf m =
  Fmt.pf ppf "%s / %s: paper says %a, measured %a" (Level.name m.m_level)
    (P.name m.m_phenomenon) Spec.pp_possibility m.expected Spec.pp_possibility
    m.got

let diff_with_spec table =
  List.concat_map
    (fun (level, cells) ->
      List.filter_map
        (fun c ->
          let expected = Spec.table4 level c.phenomenon in
          if expected = c.verdict then None
          else
            Some
              { m_level = level; m_phenomenon = c.phenomenon; expected;
                got = c.verdict })
        cells)
    table
