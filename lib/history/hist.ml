(* Histories: linear orderings of the actions of a set of transactions
   (§2.1). A history is just the list of actions in execution order;
   this module provides construction, projection and well-formedness. *)

type t = Action.t list

let of_string = Parser.parse_exn
let pp = Fmt.list ~sep:(Fmt.any " ") Action.pp
let to_string = Fmt.to_to_string pp

let txns h =
  List.sort_uniq compare (List.map Action.txn h)

let committed h =
  List.filter_map (function Action.Commit t -> Some t | _ -> None) h
  |> List.sort_uniq compare

let aborted h =
  List.filter_map (function Action.Abort t -> Some t | _ -> None) h
  |> List.sort_uniq compare

let active h =
  let ended = committed h @ aborted h in
  List.filter (fun t -> not (List.mem t ended)) (txns h)

let is_complete h = active h = []

let actions_of t h = List.filter (fun a -> Action.txn a = t) h

let project txns_to_keep h =
  let keep = Hashtbl.create (List.length txns_to_keep) in
  List.iter (fun t -> Hashtbl.replace keep t ()) txns_to_keep;
  List.filter (fun a -> Hashtbl.mem keep (Action.txn a)) h

let project_committed h = project (committed h) h

(* A history is well-formed when every transaction terminates at most once
   and performs no action after terminating. *)
let well_formed h =
  let ended = Hashtbl.create 8 in
  let rec check = function
    | [] -> Ok ()
    | a :: rest ->
      let t = Action.txn a in
      if Hashtbl.mem ended t then
        Error (Fmt.str "transaction %d acts after terminating: %a" t Action.pp a)
      else begin
        if Action.is_termination a then Hashtbl.replace ended t ();
        check rest
      end
  in
  check h

(* Positions of all actions of a transaction, and of its termination. *)
let positions h =
  List.mapi (fun i a -> (i, a)) h

let termination_pos h t =
  let rec find i = function
    | [] -> None
    | a :: rest -> (
      match a with
      | (Action.Commit t' | Action.Abort t') when t' = t -> Some i
      | _ -> find (i + 1) rest)
  in
  find 0 h

let keys h =
  List.filter_map Action.key h |> List.sort_uniq compare
