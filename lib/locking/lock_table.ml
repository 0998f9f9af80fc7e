(* Lock table for the locking scheduler (§2.3).

   Locks come in Read (Share) and Write (Exclusive) modes, on data items or
   on predicates. A Write item lock carries its before and after images so
   that conflicts against Read predicate locks implement the paper's
   phantom rule: a predicate lock covers present data items *and* any the
   write would cause to satisfy the predicate.

   The table only decides grant/conflict; durations are the caller's
   policy (Table 2) and are expressed as tags used for bulk release:
   [Short] locks are released after the action, [Cursor] locks when the
   cursor moves, [Long] locks at end of transaction.

   Striping. Item locks are partitioned into [stripes] buckets by key
   hash ({!Storage.Shard.of_key}); predicate locks live in one dedicated
   bucket, because a predicate covers keys in every stripe. The table
   itself takes no locks — the runtime's pool guarantees that an
   operation only touches buckets whose stripe mutexes it holds:

   - an item request reads and writes only the key's bucket, plus a read
     of the predicate bucket (a Write item lock must see predicate
     readers — the phantom rule). Writers therefore hold the key stripe
     and the predicate stripe, acquired in that order; plain readers
     hold just the key stripe, and their predicate-bucket read is safe
     because every predicate-bucket *mutation* happens under all stripes
     (predicate locks are only taken by scans, which hold everything).
   - a predicate request reads every bucket (a predicate reader
     conflicts with item writers anywhere), so its caller holds every
     stripe.

   Shared counters are atomics; the audit log — an exact interleaved
   order of grants and releases, which only single-threaded harnesses
   consume — is kept under a private mutex and can be disabled
   ([~audit:false]) so the striped hot path shares no list. *)

type key = History.Action.key
type value = History.Action.value
type txn = History.Action.txn

type request =
  | Read_item of key
  | Update_item of key
      (* U mode: taken by for-update fetches intending to write. Compatible
         with Read locks, incompatible with other Update or Write locks —
         the classical cure for upgrade deadlocks. *)
  | Write_item of { k : key; before : value option; after : value option }
  | Read_pred of Storage.Predicate.t
  | Write_pred of Storage.Predicate.t

let pp_request ppf = function
  | Read_item k -> Fmt.pf ppf "S(%s)" k
  | Update_item k -> Fmt.pf ppf "U(%s)" k
  | Write_item { k; _ } -> Fmt.pf ppf "X(%s)" k
  | Read_pred p -> Fmt.pf ppf "S<%a>" Storage.Predicate.pp p
  | Write_pred p -> Fmt.pf ppf "X<%a>" Storage.Predicate.pp p

type tag = Short | Cursor of string | Long

type entry = { owner : txn; req : request; tag : tag }

type bucket = { mutable entries : entry list }

(* The audit log: every grant and release, in order. Lets tests check the
   paper's two-phase property against actual engine behavior. *)
type event =
  | Acquired of { owner : txn; req : request; tag : tag }
  | Released of { owner : txn; count : int }

type stats = { grants : int; conflicts : int; releases : int; upgrades : int }

(* Live observation hook: fired synchronously on every grant decision,
   refusal and release, with the upgrade flag the counters see. The
   runtime's tracing layer installs one to put lock traffic on the
   per-transaction timeline; [None] (the default) costs one branch. *)
type hook =
  | On_grant of { owner : txn; req : request; tag : tag; upgrade : bool }
  | On_conflict of { owner : txn; req : request; upgrade : bool; holders : txn list }
  | On_release of { owner : txn; count : int }

type t = {
  stripes : int;
  buckets : bucket array;      (* item locks, by key hash *)
  pred : bucket;               (* predicate locks, one dedicated bucket *)
  audit : bool;
  audit_m : Mutex.t;
  mutable events : event list; (* newest first; under audit_m *)
  grants : int Atomic.t;     (* grant decisions, including redundant covers *)
  conflicts : int Atomic.t;  (* acquire attempts refused by a holder *)
  releases : int Atomic.t;   (* lock entries dropped by release/release_all *)
  upgrades : int Atomic.t;   (* write requests over an own weaker lock *)
  mutable hook : (hook -> unit) option;
}

let create ?(stripes = 1) ?(audit = true) () =
  let stripes = max 1 stripes in
  {
    stripes;
    buckets = Array.init stripes (fun _ -> { entries = [] });
    pred = { entries = [] };
    audit;
    audit_m = Mutex.create ();
    events = [];
    grants = Atomic.make 0;
    conflicts = Atomic.make 0;
    releases = Atomic.make 0;
    upgrades = Atomic.make 0;
    hook = None;
  }

let bucket_of_key t k = Storage.Shard.of_key ~shards:t.stripes k

(* Bucket indices [0 .. stripes - 1] are the item buckets; index
   [stripes] names the predicate bucket (mirroring the pool's convention
   that the predicate stripe is the last, highest-ordered stripe). *)
let pred_bucket t = t.stripes

let bucket t i = if i >= t.stripes then t.pred else t.buckets.(i)

let bucket_of_req t = function
  | Read_item k | Update_item k | Write_item { k; _ } -> bucket_of_key t k
  | Read_pred _ | Write_pred _ -> pred_bucket t

let set_hook t f = t.hook <- Some f
let clear_hook t = t.hook <- None
let notify t h = match t.hook with None -> () | Some f -> f h

let log_event t e =
  if t.audit then begin
    Mutex.lock t.audit_m;
    t.events <- e :: t.events;
    Mutex.unlock t.audit_m
  end

let events t =
  Mutex.lock t.audit_m;
  let es = t.events in
  Mutex.unlock t.audit_m;
  List.rev es

let stats t =
  { grants = Atomic.get t.grants; conflicts = Atomic.get t.conflicts;
    releases = Atomic.get t.releases; upgrades = Atomic.get t.upgrades }

(* Do two granted/requested locks conflict? Two locks by different
   transactions conflict if at least one is a Write lock and they cover a
   common (possibly phantom) data item. *)
let requests_conflict a b =
  let item_vs_pred k ~before ~after p =
    Storage.Predicate.affected_by_write p k ~before ~after
  in
  match (a, b) with
  | Read_item _, Read_item _ | Read_item _, Read_pred _
  | Read_pred _, Read_item _ | Read_pred _, Read_pred _ ->
    false
  (* U is compatible with readers but excludes other updaters/writers. *)
  | Update_item _, Read_item _ | Read_item _, Update_item _ -> false
  | Update_item k1, Update_item k2 -> k1 = k2
  | Update_item k, Write_item { k = k'; _ } | Write_item { k = k'; _ }, Update_item k ->
    k = k'
  | Update_item _, Read_pred _ | Read_pred _, Update_item _ ->
    (* A U lock intends to write but has not yet; predicate readers only
       conflict with the eventual Write lock. *)
    false
  | Write_item { k = k1; _ }, Write_item { k = k2; _ } -> k1 = k2
  | Write_item { k; _ }, Read_item k' | Read_item k', Write_item { k; _ } ->
    k = k'
  | Write_item { k; before; after }, Read_pred p
  | Read_pred p, Write_item { k; before; after } ->
    item_vs_pred k ~before ~after p
  (* Predicate Write locks are not issued by the engines in this
     repository; conflicts involving them are decided conservatively. *)
  | Write_pred _, (Read_pred _ | Write_pred _ | Write_item _ | Update_item _)
  | (Read_pred _ | Write_item _ | Update_item _), Write_pred _ ->
    true
  | Write_pred _, Read_item _ | Read_item _, Write_pred _ -> true

(* Does a lock already held by [owner] make [req] redundant? Holding a
   Write item lock covers further reads and writes of the same item. *)
let covers held req =
  match (held, req) with
  | Read_item k, Read_item k' -> k = k'
  | Update_item k, (Read_item k' | Update_item k') -> k = k'
  | Write_item { k; _ },
    (Read_item k' | Update_item k' | Write_item { k = k'; _ }) ->
    k = k'
  | Read_pred p, Read_pred q | Write_pred p, (Read_pred q | Write_pred q) ->
    p.Storage.Predicate.name = q.Storage.Predicate.name
  | _ -> false

type verdict = Granted | Conflict of txn list

(* A lock *upgrade*: a Write request on an item the owner already covers
   only with a weaker (Read or Update) lock — the paper's canonical
   deadlock trigger (two transactions read x, then both try to write it).
   Counted on the request, granted or refused: the refused ones are the
   upgrade storm. *)
let is_upgrade t ~owner req =
  match req with
  | Write_item { k; _ } ->
    let entries = (bucket t (bucket_of_key t k)).entries in
    let holds pred = List.exists (fun e -> e.owner = owner && pred e.req) entries in
    holds (function
      | Read_item k' | Update_item k' -> k' = k
      | _ -> false)
    && not (holds (function Write_item { k = k'; _ } -> k' = k | _ -> false))
  | _ -> false

(* The buckets whose existing entries can conflict with [req]: the
   request's own bucket, plus the predicate bucket for item requests
   (phantom rule and conservative Write_pred handling), plus every item
   bucket for predicate requests (a predicate covers all stripes). *)
let conflict_entries t req =
  match req with
  | Read_item _ | Update_item _ | Write_item _ ->
    let own = (bucket t (bucket_of_req t req)).entries in
    if t.pred.entries == [] then own else own @ t.pred.entries
  | Read_pred _ | Write_pred _ ->
    Array.fold_left (fun acc b -> acc @ b.entries) t.pred.entries t.buckets

let acquire t ~owner ~tag req =
  let upgrade = is_upgrade t ~owner req in
  if upgrade then Atomic.incr t.upgrades;
  let conflicting =
    List.filter
      (fun e -> e.owner <> owner && requests_conflict e.req req)
      (conflict_entries t req)
  in
  match conflicting with
  | _ :: _ ->
    Atomic.incr t.conflicts;
    let holders =
      List.sort_uniq compare (List.map (fun e -> e.owner) conflicting)
    in
    notify t (On_conflict { owner; req; upgrade; holders });
    Conflict holders
  | [] ->
    (* Promote rather than duplicate: an identical or covering lock with a
       duration at least as long needs no new entry. Write item locks are
       special: each write carries fresh before/after images that predicate
       conflict checks must see, so only an image-identical entry is
       redundant — a second write of the same key adds its own entry. *)
    let tag_rank = function Short -> 0 | Cursor _ -> 1 | Long -> 2 in
    let subsumes held =
      match (held, req) with
      | _, Write_item _ -> held = req
      | _ -> covers held req
    in
    let b = bucket t (bucket_of_req t req) in
    let redundant =
      List.exists
        (fun e -> e.owner = owner && subsumes e.req && tag_rank e.tag >= tag_rank tag)
        b.entries
    in
    if not redundant then begin
      b.entries <- { owner; req; tag } :: b.entries;
      log_event t (Acquired { owner; req; tag })
    end;
    Atomic.incr t.grants;
    notify t (On_grant { owner; req; tag; upgrade });
    Granted

(* Drop [owner]'s entries matching [keep_if] from the buckets in [scope]
   ([None] = every bucket). Striped callers must scope a release to
   buckets whose stripes they hold; the engine's step-local [Short] and
   [Cursor] releases pass exactly the step's stripe footprint, and
   end-of-transaction [release_all] runs with every stripe held. *)
let release_matching t ~owner ~scope matches =
  let indices =
    match scope with
    | Some is -> List.sort_uniq compare is
    | None -> List.init (t.stripes + 1) Fun.id
  in
  let dropped = ref 0 in
  List.iter
    (fun i ->
      let b = bucket t i in
      let keep, gone =
        List.partition
          (fun e -> not (e.owner = owner && matches e.tag))
          b.entries
      in
      if gone <> [] then begin
        b.entries <- keep;
        dropped := !dropped + List.length gone
      end)
    indices;
  if !dropped > 0 then begin
    let count = !dropped in
    ignore (Atomic.fetch_and_add t.releases count);
    log_event t (Released { owner; count });
    notify t (On_release { owner; count })
  end

let release ?scope t ~owner ~tag =
  release_matching t ~owner ~scope (fun tg -> tg = tag)

let release_all t ~owner = release_matching t ~owner ~scope:None (fun _ -> true)

let all_entries t =
  Array.fold_left (fun acc b -> acc @ b.entries) t.pred.entries t.buckets

let held t ~owner =
  List.filter_map
    (fun e -> if e.owner = owner then Some (e.req, e.tag) else None)
    (all_entries t)

let owners t =
  List.sort_uniq compare (List.map (fun e -> e.owner) (all_entries t))

let is_empty t = all_entries t = []

let pp ppf t =
  Fmt.pf ppf "%a"
    Fmt.(
      list ~sep:sp (fun ppf e ->
          Fmt.pf ppf "T%d:%a" e.owner pp_request e.req))
    (all_entries t)
