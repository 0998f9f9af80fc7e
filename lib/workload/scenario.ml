(* Scenarios: adversarial transaction programs, one or more per
   phenomenon, with a verdict telling whether a given execution actually
   exhibited the anomaly.

   A cell of the paper's Table 4 says whether a phenomenon is possible at
   an isolation level; the simulator decides a cell by running every
   interleaving of the phenomenon's scenarios under that level and asking
   the verdict. "Sometimes Possible" cells are exactly the ones whose
   scenarios disagree — e.g. Cursor Stability prevents lost updates on
   cursor access but not on plain reads. *)

module P = Phenomena.Phenomenon
module Executor = Runtime.Executor
module Program = Core.Program

type t = {
  id : string;
  phenomenon : P.t;
  description : string;
  initial : (string * int) list;
  predicates : Storage.Predicate.t list;
  programs : Program.t list;
  exhibits : Executor.result -> bool;
}

(* {2 Verdict helpers} *)

let committed r tid = List.assoc_opt tid r.Executor.statuses = Some Executor.Committed

let all_committed r =
  List.for_all (fun (_, s) -> s = Executor.Committed) r.Executor.statuses

let env_of r tid =
  match List.assoc_opt tid r.Executor.envs with
  | Some env -> env
  | None -> Program.empty_env

(* All values a transaction read for a key, oldest first. *)
let reads_of r tid k =
  List.rev
    (List.filter_map
       (fun (k', v) -> if k' = k then Some v else None)
       (env_of r tid).Program.reads)

let last_read r tid k =
  match List.rev (reads_of r tid k) with v :: _ -> v | [] -> None

(* All row sets a transaction saw for a named predicate, oldest first. *)
let scans_of r tid name =
  List.rev
    (List.filter_map
       (fun (n, rows) -> if n = name then Some rows else None)
       (env_of r tid).Program.scans)

let final_value r k = List.assoc_opt k r.Executor.final

let final_sum ?(prefix = "") r =
  List.fold_left
    (fun acc (k, v) ->
      if String.length k >= String.length prefix
         && String.sub k 0 (String.length prefix) = prefix
      then acc + v
      else acc)
    0 r.Executor.final

(* Did the transaction observe two different values for the key? *)
let unrepeatable_read r tid k =
  match reads_of r tid k with
  | [] | [ _ ] -> false
  | first :: rest -> List.exists (fun v -> v <> first) rest

(* Did the transaction see two different row sets for the predicate? *)
let unrepeatable_scan r tid name =
  match scans_of r tid name with
  | [] | [ _ ] -> false
  | first :: rest ->
    let keys rows = List.sort compare (List.map fst rows) in
    List.exists (fun rows -> keys rows <> keys first) rest

let pp ppf s =
  Fmt.pf ppf "%s (%s): %s" s.id (P.name s.phenomenon) s.description
