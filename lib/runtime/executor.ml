(* Deterministic step driver: runs a set of transaction programs under an
   explicit interleaving through the pool's step interface, on the
   calling thread — the same begin/step/finish path, stripes, waits-for
   graph and deadlock break that batch workers and server sessions take.

   A schedule is a sequence of transaction ids; each entry is one
   [exec_step] of that transaction's next operation. A blocked step does
   not consume the operation: the transaction stays on it until a later
   entry retries it. Nothing ever parks, so the wake callback is a no-op.
   After the explicit schedule the driver drains round-robin until every
   transaction terminates, so every schedule yields a complete history.
   The same programs, levels and schedule always produce the same
   history. *)

module Action = History.Action
module Level = Isolation.Level
module Engine = Core.Engine
module Program = Core.Program

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

(* One worker, hence one latch: the driver is the only caller, so no
   step contends and none needs its footprint worked out. *)
let pool_config = Pool.config ~workers:1 ()

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
  let exec =
    Pool.exec_create ~next_key_locking:cfg.next_key_locking
      ~update_locks:cfg.update_locks
      { pool_config with
        initial = cfg.initial;
        predicates = cfg.predicates;
        first_updater_wins = cfg.first_updater_wins }
      ~family:(Engine.family_of_levels cfg.levels)
  in
  let pc = Array.make n 0 in
  let tries = Array.make n 0 in (* blocked tries of the current operation *)
  let ended = Array.make n None in
  let blocked_attempts = ref 0 in
  (* Terminal accounting, once per transaction. The env is read first:
     [exec_finish] releases the transaction's engine state. There is no
     deadline and no latency report, so the start stamp is 0. *)
  let finish tid =
    let env = Pool.exec_env exec ~tid in
    let outcome, _ =
      Pool.exec_finish exec ~worker:0 ~tid ~job:tid ~name:"txn"
        ~level:levels.(tid - 1) ~attempt:1 ~start_ns:0 ~wait_ns:0
    in
    let status =
      match outcome with
      | Recorder.Committed -> Committed
      | Recorder.Aborted r -> Aborted r
    in
    ended.(tid - 1) <- Some (status, env)
  in
  let finished tid = ended.(tid - 1) <> None in
  (* One attempt at [tid]'s next operation. Returns true if the attempt
     may have changed the engine state: it progressed, terminated the
     transaction, or broke a deadlock. *)
  let attempt tid =
    if tid < 1 || tid > n then
      invalid_arg (Fmt.str "Executor.run: schedule names unknown transaction %d" tid);
    let i = tid - 1 in
    if finished tid then false
    else begin
      (* Not yet begun: no operation has progressed or blocked. *)
      if pc.(i) = 0 && tries.(i) = 0 then
        Pool.exec_begin ~wake:ignore exec ~worker:0 ~tid ~job:tid ~name:"txn"
          ~attempt:1 ~level:levels.(i)
          ~read_only:(List.nth_opt cfg.read_only i = Some true);
      match
        Pool.exec_step ~tries:tries.(i) exec ~worker:0 ~tid ~seq:0 ~start_ns:0
          ops.(i).(pc.(i))
      with
      | Pool.Session_progress ->
        pc.(i) <- pc.(i) + 1;
        tries.(i) <- 0;
        if pc.(i) = Array.length ops.(i) then finish tid;
        true
      | Pool.Session_finished | Pool.Session_aborted _ as s ->
        (* Ended from outside (another's step chose it as a deadlock
           victim), inside an earlier step that still progressed (a
           multiversion or timestamp engine's rollback), or in this
           step, which blocked and chose itself as the victim. *)
        if s = Pool.Session_aborted Engine.Deadlock_victim then
          incr blocked_attempts;
        finish tid;
        true
      | (Pool.Session_retry | Pool.Session_blocked _) as s ->
        incr blocked_attempts;
        tries.(i) <- tries.(i) + 1;
        (* A retry's wait closed a cycle, whose victim may be another
           transaction. *)
        s = Pool.Session_retry
    end
  in
  List.iter (fun tid -> ignore (attempt tid)) schedule;
  (* Drain: round-robin until every transaction terminates. Each full pass
     must make progress: if every remaining transaction blocks and none
     of the waits closes a cycle, one of them waits on a transaction that
     has already ended, which is an engine bug. *)
  let all_tids = List.init n (fun i -> i + 1) in
  let rec drain guard =
    if List.exists (fun tid -> not (finished tid)) all_tids then begin
      if guard > 100_000 then raise (Pool.Stuck "Executor.run: drain did not converge");
      let progressed =
        List.fold_left (fun acc tid -> attempt tid || acc) false all_tids
      in
      if not progressed then
        raise (Pool.Stuck "Executor.run: no progress and no deadlock cycle");
      drain (guard + 1)
    end
  in
  drain 0;
  let ended tid = Option.get ended.(tid - 1) in
  {
    history = Pool.exec_history exec;
    final = Pool.exec_final exec;
    statuses = List.map (fun tid -> (tid, fst (ended tid))) all_tids;
    envs = List.map (fun tid -> (tid, snd (ended tid))) all_tids;
    deadlock_aborts = Pool.exec_deadlocks exec;
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
