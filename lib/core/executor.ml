(* Deterministic scheduler: drives a set of transaction programs through
   the engine under an explicit interleaving, with waits-for deadlock
   detection.

   A schedule is a sequence of transaction ids; each entry is one attempt
   to execute that transaction's next operation. Attempts that block do
   not consume the operation — the blocked transaction waits and the
   attempt records a waits-for edge; a cycle aborts the youngest
   transaction in it. After the explicit schedule is exhausted the
   executor drains round-robin until every transaction terminates, so
   every schedule yields a complete history. Everything is deterministic:
   the same programs, levels and schedule always produce the same
   history. *)

module Action = History.Action
module Level = Isolation.Level
module Digraph = Graph.Digraph

type txn = Action.txn

type status = Committed | Aborted of Engine.abort_reason

let pp_status ppf = function
  | Committed -> Fmt.string ppf "committed"
  | Aborted r -> Fmt.pf ppf "aborted (%a)" Engine.pp_abort_reason r

type config = {
  initial : (Action.key * Action.value) list;
  predicates : Storage.Predicate.t list;
  levels : Level.t list; (* one per program; transaction ids are 1-based *)
  first_updater_wins : bool;
  next_key_locking : bool;
  update_locks : bool;
  read_only : bool list; (* per program; empty means none *)
}

let config ?(initial = []) ?(predicates = []) ?(first_updater_wins = false)
    ?(next_key_locking = false) ?(update_locks = false) ?(read_only = [])
    levels =
  { initial; predicates; levels; first_updater_wins; next_key_locking;
    update_locks; read_only }

type result = {
  history : History.t;
  final : (Action.key * Action.value) list;
  statuses : (txn * status) list;
  envs : (txn * Program.env) list;
  deadlock_aborts : int;
  blocked_attempts : int;
}

let committed_txns r =
  List.filter_map (fun (t, s) -> if s = Committed then Some t else None) r.statuses

exception Stuck of string

let run cfg programs ~schedule =
  let n = List.length programs in
  if List.length cfg.levels <> n then
    invalid_arg "Executor.run: one isolation level per program required";
  let levels = Array.of_list cfg.levels in
  let ops =
    Array.of_list
      (List.map
         (fun p ->
           let base = p.Program.ops in
           Array.of_list
             (if Program.terminated p then base else base @ [ Program.Commit ]))
         programs)
  in
  let engine =
    Engine.create_for_levels ~initial:cfg.initial ~predicates:cfg.predicates
      ~first_updater_wins:cfg.first_updater_wins
      ~next_key_locking:cfg.next_key_locking ~update_locks:cfg.update_locks
      ~levels:cfg.levels ()
  in
  let pc = Array.make n 0 in
  let begun = Array.make n false in
  let waits : (txn, txn list) Hashtbl.t = Hashtbl.create 8 in
  let deadlock_aborts = ref 0 in
  let blocked_attempts = ref 0 in
  let finished tid =
    pc.(tid - 1) >= Array.length ops.(tid - 1)
    || (begun.(tid - 1) && Engine.status engine tid <> Engine.Active)
  in
  let waits_cycle () =
    (* one shard: the graph serves a single query *)
    let g = Digraph.create ~shards:1 () in
    Hashtbl.iter
      (fun t holders -> List.iter (fun h -> Digraph.add_edge g t h) holders)
      waits;
    Digraph.find_cycle g
  in
  (* One attempt at [tid]'s next operation. Returns true if the engine
     state changed (progress was made somewhere, including via a deadlock
     abort). *)
  let attempt tid =
    if tid < 1 || tid > n then
      invalid_arg (Fmt.str "Executor.run: schedule names unknown transaction %d" tid);
    if finished tid then false
    else begin
      if not begun.(tid - 1) then begin
        let read_only =
          match List.nth_opt cfg.read_only (tid - 1) with
          | Some flag -> flag
          | None -> false
        in
        Engine.begin_txn ~read_only engine tid ~level:levels.(tid - 1);
        begun.(tid - 1) <- true
      end;
      match Engine.step engine tid ops.(tid - 1).(pc.(tid - 1)) with
      | Engine.Progress ->
        Hashtbl.remove waits tid;
        pc.(tid - 1) <- pc.(tid - 1) + 1;
        true
      | Engine.Finished ->
        Hashtbl.remove waits tid;
        pc.(tid - 1) <- Array.length ops.(tid - 1);
        true
      | Engine.Blocked holders -> (
        incr blocked_attempts;
        Hashtbl.replace waits tid holders;
        match waits_cycle () with
        | None -> false
        | Some cycle ->
          (* Abort the youngest transaction in the cycle. *)
          let victim = List.fold_left max min_int cycle in
          Engine.abort_txn engine victim;
          incr deadlock_aborts;
          Hashtbl.remove waits victim;
          true)
    end
  in
  List.iter (fun tid -> ignore (attempt tid)) schedule;
  (* Drain: round-robin until every transaction terminates. Each full pass
     must make progress — if none does, every active transaction waits on
     an active transaction and the per-block cycle check would have fired,
     so a stuck pass indicates an engine bug. *)
  let all_tids = List.init n (fun i -> i + 1) in
  let rec drain guard =
    if List.exists (fun tid -> not (finished tid)) all_tids then begin
      if guard > 100_000 then raise (Stuck "Executor.run: drain did not converge");
      let progressed =
        List.fold_left (fun acc tid -> attempt tid || acc) false all_tids
      in
      if not progressed then
        raise (Stuck "Executor.run: no progress and no deadlock cycle");
      drain (guard + 1)
    end
  in
  drain 0;
  let statuses =
    List.map
      (fun tid ->
        match Engine.status engine tid with
        | Engine.Committed -> (tid, Committed)
        | Engine.Aborted r -> (tid, Aborted r)
        | Engine.Active -> raise (Stuck "Executor.run: active transaction after drain"))
      all_tids
  in
  {
    history = Engine.trace engine;
    final = Engine.final_state engine;
    statuses;
    envs = List.map (fun tid -> (tid, Engine.env engine tid)) all_tids;
    deadlock_aborts = !deadlock_aborts;
    blocked_attempts = !blocked_attempts;
  }

(* Run under the trivial serial schedule: T1 to completion, then T2, ... *)
let run_serial cfg programs =
  let schedule =
    List.concat
      (List.mapi
         (fun i p -> List.init (Program.length p + 1) (fun _ -> i + 1))
         programs)
  in
  run cfg programs ~schedule
