(* Online serializability certification over the incremental dependency
   graph ({!Graph.Incremental}).

   The certifier consumes the recorded history action by action — fed by
   the engine's trace hook as each step commits to the trace, or offline
   via {!replay} — and maintains a *reduced* dependency graph whose
   transitive closure equals the offline graph's:

   - Single-version families (locking, timestamp ordering): per key, a
     stack of "eras", one per write, each holding its writer and the
     readers that observed it (the explicit bottom era has writer 0, the
     initial state). A read adds wr(top.writer -> reader) and joins the
     top era; a write adds ww(top.writer -> writer) plus
     rw(top.readers -> writer) and pushes a fresh era. Only
     immediate-neighbour edges are inserted; earlier writers and buried
     readers are reached through the ww chain, so the closure — and
     hence the cycles — match {!History.Conflict.graph} exactly.
     Predicates keep flat reader/writer lists per predicate name,
     mirroring {!History.Action.conflicts} (no era chain: a predicate
     read conflicts with every writer that declares the name).

   - Multiversion family: a mirror of {!History.Mv.mvsg}. Version order
     is commit order, so ww(lcw -> T) and rw(readers(lcw) -> T) land
     when T commits a key; reads add wr(version -> reader) plus
     rw(reader -> committed successor version). Writes and reads also
     add those edges *optimistically* against pending writers — genuine
     exactly if the writer commits, and erased by the purge if it
     aborts — so a wr-ww-rw cycle (e.g. write skew under SI) is caught
     before the closing transaction commits, not after.

   An aborted transaction is purged: its graph node (and thus every
   edge through it) disappears, and the single-version era merge
   re-wires the surviving neighbours (wr from the writer below, rw/ww
   to the writer above) so the graph keeps describing exactly the
   dependencies among surviving transactions.

   {!Graph.Incremental.add_edge} rejects an edge that would close a
   cycle and returns the witness immediately. In [Enforce] mode the
   certifier then dooms the acting transaction (or, for edges not
   attributable to a live actor — commit-time multiversion closures,
   purge re-wires — the youngest still-active cycle member that its
   commit check has not yet cleared); the pool polls {!doomed} and
   aborts the victim at a later step — at the latest its commit, where
   the poll waits for the graph to catch up — so the committed
   projection stays acyclic. In [Observe] mode rejected edges are only
   recorded. Either way {!finalize} replays the rejected edges whose
   endpoints both committed, in arrival order, over the purged graph:
   the first re-rejection is a genuine committed-projection cycle, and
   its absence is a full-history serializability verdict.

   Under the [Mixed] criterion the level is a per-transaction property
   ({!note_level}) and a cycle is judged per member: the certifier
   classifies the rejected cycle into the Table-4 phenomena it could
   exhibit (from the kinds of its edges, kept in a side table — edges
   themselves are inserted exactly as under serializability, so a
   strong transaction is still protected by paths through weak ones)
   and dooms a member only when every candidate phenomenon is forbidden
   at that member's own level. A cycle harming no member is tolerated:
   the closing edge stays out of the graph but is stashed, and the
   finalize replay re-judges every stashed committed-committed edge,
   attributing each re-rejection's permitted candidates to the
   committed members' levels (the anomaly × victim-level matrix) and
   counting the forbidden ones as harm — [mixed_ok] is that replay
   coming back harm-free, the mixed-criterion analogue of
   [serializable]. *)

module Action = History.Action
module Level = Isolation.Level
module Spec = Isolation.Spec
module P = Phenomena.Phenomenon
module Tids = Set.Make (Int)

(* per-tid tables: no polymorphic hash or compare per lookup *)
module Itbl = Hashtbl.Make (Int)

type mode = Observe | Enforce
type family = [ `Locking | `Mv | `Timestamp ]
type criterion = Serializability | Mixed
type kind = Wr | Ww | Rw

let kind_name = function Wr -> "wr" | Ww -> "ww" | Rw -> "rw"

type violation = {
  cycle : int list;
  dep : string;
  src : int;
  dst : int;
  doomed : int option;
  victim_level : string option; (* the victim's declared level (Mixed) *)
  classes : string list;        (* candidate phenomena of the cycle (Mixed) *)
}

type summary = {
  mode : mode;
  criterion : criterion;
  nodes : int;           (* graph size when finalize began *)
  edges : int;
  edges_wr : int;
  edges_ww : int;
  edges_rw : int;
  cycles : int;
  dooms : int;
  misses : int;
  tolerated : int;       (* cycles harming no member (Mixed) *)
  harmed : int;          (* forbidden-for-victim attributions at finalize *)
  prune_passes : int;
  pruned_nodes : int;
  pruned_eras : int;
  serializable : bool;
  mixed_ok : bool;
  matrix : ((Level.t * P.t) * int) list;
  witness : int list option;
  violations : violation list;
}

(* {2 Per-key state} *)

(* Single-version: one era per write of the key, top (latest) first; the
   bottom era is the initial state, writer 0. *)
type era = { writer : int; mutable readers : int list }
type key_sv = { mutable eras : era list }

type pred_state = { mutable preaders : int list; mutable pwriters : int list }

(* Multiversion: last committed writer, committed writers newest-first
   (the tail of {!History.Mv.version_order} reversed), readers per
   version, and the pending (uncommitted) writers. *)
type key_mv = {
  mutable lcw : int;
  mutable vorder_rev : int list;
  readers : int list ref Itbl.t;
  mutable pending : int list;
}

type status = Active | Committed | Aborted

type t = {
  mode : mode;
  family : family;
  criterion : criterion;
  batch : bool;
  buf_m : Mutex.t;                  (* guards [buf] only; taken after [m] *)
  mutable buf : Action.t list;      (* offered actions, reversed *)
  g : Graph.Incremental.t;
  m : Mutex.t;
  keys_sv : (string, key_sv) Hashtbl.t;
  preds : (string, pred_state) Hashtbl.t;
  keys_mv : (string, key_mv) Hashtbl.t;
  written : string list ref Itbl.t;
  wpreds_of : string list ref Itbl.t;
  preads_of : string list ref Itbl.t;
  status : status Itbl.t;
  doomed_tbl : unit Itbl.t;
  doomed_pub : Tids.t Atomic.t;
      (* [doomed_tbl]'s key set, republished under [m] on every change:
         what a poll reads when another worker holds [m] *)
  sealed : unit Itbl.t;
      (* cleared by their commit's poll, Commit/Abort not yet observed:
         no longer doomable *)
  (* Mixed criterion: each transaction's declared level, the kinds each
     inserted edge carries (an edge pair can carry several — e.g. both
     ww and rw — and a kind can be predicate-borne), and the permitted
     anomaly × victim-level attribution built by the finalize replay. *)
  levels : Level.t Itbl.t;
  ekinds : (int * int, (kind * bool) list ref) Hashtbl.t;
  matrix : (Level.t * P.t, int) Hashtbl.t;
  mutable pending_edges : (int * int * kind * bool) list;
                                                   (* rejected, reversed *)
  mutable violations : violation list;             (* reversed, capped *)
  mutable edges_wr : int;
  mutable edges_ww : int;
  mutable edges_rw : int;
  mutable cycles : int;
  mutable dooms : int;
  mutable misses : int;
  mutable tolerated : int;
  mutable harmed : int;
  (* Era pruning (single-version families): every [prune_every] commits
     the settled bottom of each era stack is trimmed, committed
     predicate readers/writers are folded into per-predicate virtual
     nodes, and committed graph sources no structure references any
     more are retired. 0 disables pruning. *)
  prune_every : int;
  mutable commits_seen : int;
  mutable prune_passes : int;
  mutable pruned_nodes : int;
  mutable pruned_eras : int;
  mutable vnext : int;                         (* next virtual (negative) id *)
  vpreds : (string, int * int) Hashtbl.t;      (* pred -> (vreader, vwriter) *)
  on_edge : (src:int -> dst:int -> dep:string -> unit) option;
  on_cycle : (violation -> unit) option;
}

let max_stored_violations = 64

let create ?on_edge ?on_cycle ?(batch = false) ?(prune_every = 0)
    ?(criterion = Serializability) ~mode ~family () =
  {
    mode;
    family;
    criterion;
    batch;
    buf_m = Mutex.create ();
    buf = [];
    g = Graph.Incremental.create ();
    m = Mutex.create ();
    keys_sv = Hashtbl.create 64;
    preds = Hashtbl.create 8;
    keys_mv = Hashtbl.create 64;
    written = Itbl.create 64;
    wpreds_of = Itbl.create 16;
    preads_of = Itbl.create 16;
    status = Itbl.create 64;
    doomed_tbl = Itbl.create 8;
    doomed_pub = Atomic.make Tids.empty;
    sealed = Itbl.create 8;
    levels = Itbl.create 64;
    ekinds = Hashtbl.create 256;
    matrix = Hashtbl.create 16;
    pending_edges = [];
    violations = [];
    edges_wr = 0;
    edges_ww = 0;
    edges_rw = 0;
    cycles = 0;
    dooms = 0;
    misses = 0;
    tolerated = 0;
    harmed = 0;
    prune_every;
    commits_seen = 0;
    prune_passes = 0;
    pruned_nodes = 0;
    pruned_eras = 0;
    vnext = -1;
    vpreds = Hashtbl.create 8;
    on_edge;
    on_cycle;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Every [doomed_tbl] change goes through these two, under [m], so the
   published set never lags the table past the end of a critical
   section — in particular a doom is published before [on_cycle] wakes
   its victim. *)
let doom t n =
  Itbl.replace t.doomed_tbl n ();
  Atomic.set t.doomed_pub (Tids.add n (Atomic.get t.doomed_pub))

let undoom t n =
  if Itbl.mem t.doomed_tbl n then begin
    Itbl.remove t.doomed_tbl n;
    Atomic.set t.doomed_pub (Tids.remove n (Atomic.get t.doomed_pub))
  end

let status_of t n = Option.value ~default:Active (Itbl.find_opt t.status n)
let is_active t n = n <> 0 && status_of t n = Active

(* {2 The mixed criterion}

   Levels are per transaction; an untagged transaction defaults to
   SERIALIZABLE, which forbids everything — exactly the single-level
   behaviour. *)

let note_level t ~tid ~level =
  locked t (fun () -> Itbl.replace t.levels tid level)

let level_of t n =
  Option.value ~default:Level.Serializable (Itbl.find_opt t.levels n)

(* Kinds carried by an inserted edge pair, recorded only under [Mixed]:
   the same pair can carry several (a re-written key yields both ww and
   rw), and an rw can be item- or predicate-borne — the P2 / P3
   distinction. Entries are swept with source retirement; a stale kind
   only widens a later cycle's candidate set, which errs toward
   tolerating, never toward a spurious doom of a weak transaction. *)
let note_kind t src dst dep pred =
  if t.criterion = Mixed then
    match Hashtbl.find_opt t.ekinds (src, dst) with
    | Some l -> if not (List.mem (dep, pred) !l) then l := (dep, pred) :: !l
    | None -> Hashtbl.replace t.ekinds (src, dst) (ref [ (dep, pred) ])

(* The Table-4 phenomena a rejected cycle could exhibit, from its edges'
   kind sets in cyclic order (the rejected closing edge last). Every
   kind selection names a real cycle of the multigraph, so candidates
   are the union over selections: all-ww is Degree-1 write interference
   (P0); a selection avoiding rw but crossing a wr is circular
   information flow (P1); any rw makes it an antidependency cycle — P3
   when a predicate read is involved, P2 for an item read — with the
   short shapes the paper names refined further: rw+ww two-cycles are
   lost updates (P4), rw+wr read skew (A5A), rw+rw — or two cyclically
   adjacent rw in a longer cycle, the SI dangerous structure — write
   skew (A5B). An edge with no recorded kinds (pruned away, or through a
   virtual predicate node) counts as any kind. *)
let classify t cycle ~dep ~pred =
  let wild = [ (Wr, false); (Ww, false); (Rw, false); (Rw, true) ] in
  let rec graph_pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: graph_pairs rest
    | _ -> []
  in
  let kinds (a, b) =
    if a < 0 || b < 0 then wild
    else
      match Hashtbl.find_opt t.ekinds (a, b) with
      | Some l -> !l
      | None -> wild
  in
  let sets = List.map kinds (graph_pairs cycle) @ [ [ (dep, pred) ] ] in
  let has k set = List.exists (fun (kk, _) -> kk = k) set in
  let item_rw set = List.mem (Rw, false) set in
  let pred_rw set = List.mem (Rw, true) set in
  let cands = ref [] in
  let add p = if not (List.mem p !cands) then cands := p :: !cands in
  if List.for_all (has Ww) sets then add P.P0;
  if
    List.for_all (fun s -> has Wr s || has Ww s) sets
    && List.exists (has Wr) sets
  then add P.P1;
  if List.exists (has Rw) sets then begin
    if List.exists pred_rw sets then add P.P3;
    if List.exists item_rw sets then add P.P2;
    match sets with
    | [ e1; e2 ] ->
      if has Rw e1 && has Rw e2 then add P.A5B;
      if (item_rw e1 && has Ww e2) || (item_rw e2 && has Ww e1) then add P.P4;
      if (item_rw e1 && has Wr e2) || (item_rw e2 && has Wr e1) then add P.A5A
    | _ ->
      let arr = Array.of_list sets in
      let n = Array.length arr in
      let adjacent_rw = ref false in
      for i = 0 to n - 1 do
        if has Rw arr.(i) && has Rw arr.((i + 1) mod n) then
          adjacent_rw := true
      done;
      if !adjacent_rw then add P.A5B
  end;
  List.rev !cands

(* A member is harmed when the cycle cannot be explained by any
   phenomenon its level permits. The quantifier is the permissive one —
   doom only when every candidate is forbidden — so an SI transaction in
   a write-skew two-cycle is left alone (A5B is Possible under SI even
   though P2 is not) while a SERIALIZABLE member, forbidding every
   phenomenon, is doomed for any cycle: full serializability is the
   SERIALIZABLE-victim special case. *)
let harmed t candidates n =
  n > 0
  && candidates <> []
  && List.for_all
       (fun p -> Spec.table4 (level_of t n) p = Spec.Not_possible)
       candidates

(* {2 Edge offers}

   Every dependency the rules derive goes through [offer]: self-edges,
   edges through the virtual initial transaction 0 and edges touching an
   already-aborted transaction are dropped; the rest are inserted unless
   they would close a cycle. A rejected edge is remembered for the
   finalize replay, and in [Enforce] mode dooms [actor] if it is still
   active (it always sits on the cycle: every rule emits edges with the
   acting transaction as one endpoint), else the youngest active cycle
   member, else counts as a miss.

   Under [Mixed] the doom is victim-relative: the cycle is classified
   and a harmed member is preferred — the actor if harmed, else the
   youngest doomable harmed member. When every harmed member has
   already committed (the closing edge arrived behind its back, so the
   harm is otherwise unpreventable), the youngest active cycle member
   is doomed in its stead: a defensive abort protecting the committed
   victim, the way SSI aborts a benign pivot. A cycle harming nobody
   is tolerated: nothing is doomed, but the closing edge still goes to
   the stash so the finalize replay can attribute it on the committed
   projection. *)
let offer ?actor ?(pred = false) ~dep t src dst =
  if
    src <> dst && src <> 0 && dst <> 0
    && status_of t src <> Aborted
    && status_of t dst <> Aborted
  then
    match Graph.Incremental.add_edge t.g src dst with
    | `Exists -> note_kind t src dst dep pred
    | `Ok ->
      note_kind t src dst dep pred;
      (match dep with
      | Wr -> t.edges_wr <- t.edges_wr + 1
      | Ww -> t.edges_ww <- t.edges_ww + 1
      | Rw -> t.edges_rw <- t.edges_rw + 1);
      (match t.on_edge with
      | Some f -> f ~src ~dst ~dep:(kind_name dep)
      | None -> ())
    | `Cycle cycle ->
      t.cycles <- t.cycles + 1;
      t.pending_edges <- (src, dst, dep, pred) :: t.pending_edges;
      let candidates =
        if t.criterion = Mixed then classify t cycle ~dep ~pred else []
      in
      let harmed_members =
        if t.criterion = Mixed then List.filter (harmed t candidates) cycle
        else []
      in
      if t.criterion = Mixed && harmed_members = [] then
        t.tolerated <- t.tolerated + 1;
      let victim =
        if t.mode <> Enforce then None
        else begin
          let doomable n =
            is_active t n
            && not (Itbl.mem t.doomed_tbl n || Itbl.mem t.sealed n)
          in
          let youngest_doomable among =
            List.fold_left
              (fun acc n ->
                if doomable n then
                  match acc with Some m when m >= n -> acc | _ -> Some n
                else acc)
              None among
          in
          let eligible =
            match t.criterion with
            | Serializability -> cycle
            | Mixed -> harmed_members
          in
          if t.criterion = Mixed && eligible = [] then None
          else begin
            let v =
              match actor with
              | Some a when doomable a && List.mem a eligible -> Some a
              | Some a
                when doomable a && t.criterion = Serializability ->
                Some a
              | _ -> (
                match youngest_doomable eligible with
                | Some _ as v -> v
                | None when t.criterion = Mixed ->
                  (* Every harmed member already committed: defensive
                     abort of a live member on its behalf. *)
                  (match actor with
                  | Some a when doomable a -> Some a
                  | _ -> youngest_doomable cycle)
                | None -> None)
            in
            (match v with
            | Some a ->
              doom t a;
              t.dooms <- t.dooms + 1
            | None -> t.misses <- t.misses + 1);
            v
          end
        end
      in
      let victim_level =
        if t.criterion <> Mixed then None
        else
          (* The protected party: the doomed member when it is itself
             harmed, else the harmed member a defensive abort defends. *)
          match (victim, harmed_members) with
          | Some d, hs when hs = [] || List.mem d hs ->
            Some (Level.slug (level_of t d))
          | _, m :: _ -> Some (Level.slug (level_of t m))
          | Some d, [] -> Some (Level.slug (level_of t d))
          | None, [] -> None
      in
      let v =
        {
          cycle;
          dep = kind_name dep;
          src;
          dst;
          doomed = victim;
          victim_level;
          classes = List.map P.name candidates;
        }
      in
      if t.cycles <= max_stored_violations then t.violations <- v :: t.violations;
      (match t.on_cycle with Some f -> f v | None -> ())

let note_in tbl tid v =
  match Itbl.find_opt tbl tid with
  | Some l -> if not (List.mem v !l) then l := v :: !l
  | None -> Itbl.replace tbl tid (ref [ v ])

let noted tbl tid =
  match Itbl.find_opt tbl tid with Some l -> !l | None -> []

(* {2 Single-version rules} *)

let key_sv t k =
  match Hashtbl.find_opt t.keys_sv k with
  | Some s -> s
  | None ->
    let s = { eras = [ { writer = 0; readers = [] } ] } in
    Hashtbl.replace t.keys_sv k s;
    s

let pred_state t p =
  match Hashtbl.find_opt t.preds p with
  | Some s -> s
  | None ->
    let s = { preaders = []; pwriters = [] } in
    Hashtbl.replace t.preds p s;
    s

let add_reader (era : era) r =
  if not (List.mem r era.readers) then era.readers <- r :: era.readers

(* The era directly above (written after) [era], if any; [eras] is
   top-first. *)
let era_above eras (era : era) =
  let rec go = function
    | (a : era) :: (b :: _ as rest) -> if b == era then Some a else go rest
    | _ -> None
  in
  go eras

let sv_read t tid k rver =
  let s = key_sv t k in
  let era =
    match rver with
    | Some v when v <> tid -> (
      (* an annotated (snapshot) read of a buried version joins that
         version's era and antidepends on the writer above it *)
      match List.find_opt (fun e -> e.writer = v) s.eras with
      | Some e -> e
      | None -> List.hd s.eras)
    | _ -> List.hd s.eras
  in
  offer ~actor:tid ~dep:Wr t era.writer tid;
  (match era_above s.eras era with
  | Some a -> offer ~actor:tid ~dep:Rw t tid a.writer
  | None -> ());
  add_reader era tid

let sv_write t tid k wpreds =
  let s = key_sv t k in
  (match s.eras with
  | top :: _ when top.writer = tid ->
    (* re-write: the era's readers saw the earlier value, so their reads
       precede this write — a genuine antidependency *)
    List.iter (fun r -> offer ~actor:tid ~dep:Rw t r tid) top.readers
  | top :: _ ->
    offer ~actor:tid ~dep:Ww t top.writer tid;
    List.iter (fun r -> offer ~actor:tid ~dep:Rw t r tid) top.readers;
    s.eras <- { writer = tid; readers = [] } :: s.eras;
    note_in t.written tid k
  | [] -> assert false);
  List.iter
    (fun p ->
      let ps = pred_state t p in
      List.iter
        (fun r -> offer ~actor:tid ~pred:true ~dep:Rw t r tid)
        ps.preaders;
      if not (List.mem tid ps.pwriters) then ps.pwriters <- tid :: ps.pwriters;
      note_in t.wpreds_of tid p)
    wpreds

let sv_pred_read t tid pname pkeys =
  List.iter
    (fun k ->
      let s = key_sv t k in
      let top = List.hd s.eras in
      offer ~actor:tid ~dep:Wr t top.writer tid;
      add_reader top tid)
    pkeys;
  let ps = pred_state t pname in
  List.iter (fun w -> offer ~actor:tid ~dep:Wr t w tid) ps.pwriters;
  if not (List.mem tid ps.preaders) then ps.preaders <- tid :: ps.preaders;
  note_in t.preads_of tid pname

(* Purging an aborted transaction's eras: each of its eras merges into
   the era below — the below writer's value is what the merged readers
   (and, with the era gone, the below era's own readers' successor
   edges) now relate to. The re-wired edges are exactly the surviving
   projection's dependencies: wr(below.writer -> r) because the abort's
   undo restored below's value, and rw(r -> above.writer) /
   ww(below.writer -> above.writer) because [above] is now the next
   surviving write. *)
let sv_purge t tid =
  List.iter
    (fun k ->
      let s = key_sv t k in
      let rec go ~above = function
        | [] -> []
        | era :: rest when era.writer = tid ->
          let rest' = go ~above rest in
          (match rest' with
          | below :: _ ->
            List.iter
              (fun r ->
                offer ~dep:Wr t below.writer r;
                add_reader below r)
              era.readers;
            (match above with
            | Some (a : era) ->
              offer ~dep:Ww t below.writer a.writer;
              List.iter (fun r -> offer ~dep:Rw t r a.writer) below.readers
            | None -> ())
          | [] -> ());
          rest'
        | era :: rest -> era :: go ~above:(Some era) rest
      in
      s.eras <- go ~above:None s.eras)
    (noted t.written tid);
  List.iter
    (fun p ->
      let ps = pred_state t p in
      ps.pwriters <- List.filter (fun w -> w <> tid) ps.pwriters)
    (noted t.wpreds_of tid);
  List.iter
    (fun p ->
      let ps = pred_state t p in
      ps.preaders <- List.filter (fun r -> r <> tid) ps.preaders)
    (noted t.preads_of tid);
  Itbl.remove t.written tid;
  Itbl.remove t.wpreds_of tid;
  Itbl.remove t.preads_of tid

(* {2 Era pruning}

   An exact verdict does not require the whole graph: a committed
   transaction that (a) has no in-edges and (b) is named by no structure
   a future rule could read a tid from — era stacks, predicate lists,
   the per-transaction tables, the pending (rejected) edges — can never
   again gain an in-edge, so no cycle can pass through it, and its node
   can be dropped without changing any future insertion's outcome
   (closure-preserving, like the abort purge). Three steps make such
   sources appear, run every [prune_every] commits:

   - Era trimming: drop a key's bottom era once both its writer and the
     writer directly above are committed (or the initial 0). A committed
     writer is never abort-purged, so the dropped era can never be
     needed as a purge's below-neighbour. A later snapshot read
     annotated with a trimmed version falls back to the top era —
     exactly the fallback already taken for versions predating the
     certifier — which only arises for long-running read-only
     transactions (none in the stress mixes).

   - Predicate folding: the flat predicate lists mean every committed
     past reader r would get an rw edge to every future matching
     writer. That biclique is compressed exactly through a per-predicate
     virtual node: r is linked r -> VR once and replaced by VR in the
     list, so the future edges VR -> w complete the same paths; dually
     committed writers fold into w -> VW with VW emitting the future
     wr edges. Virtual ids are negative, committed, and never retired,
     so cycles through them are genuine committed-projection cycles.

   - Retirement: with the structures thinned, committed unreferenced
     graph sources are removed, cascading along their out-edges.

   The multiversion family prunes on a different trigger: the certifier
   cannot time out versions itself (it does not timestamp snapshots, and
   an active transaction that has not acted yet may hold an arbitrarily
   old one), so it waits for the engine's vacuum to declare versions
   buried — {!mv_trim}, fed by {!Core.Engine.set_prune_hook} with the
   exact (key, writer) pairs pruned at the oldest-active-snapshot
   horizon. Trimmed writers then fall to the same source retirement. *)

let committed_or_initial t n = n = 0 || status_of t n = Committed

let trim_eras t =
  Hashtbl.iter
    (fun _ (s : key_sv) ->
      let rec drop = function
        | (bottom : era) :: (above :: _ as rest)
          when committed_or_initial t bottom.writer
               && committed_or_initial t above.writer ->
          t.pruned_eras <- t.pruned_eras + 1;
          drop rest
        | rest -> rest
      in
      let bottom_first = List.rev s.eras in
      let trimmed = drop bottom_first in
      if trimmed != bottom_first then s.eras <- List.rev trimmed)
    t.keys_sv

let virtual_pair t p =
  match Hashtbl.find_opt t.vpreds p with
  | Some pair -> pair
  | None ->
    let vr = t.vnext and vw = t.vnext - 1 in
    t.vnext <- t.vnext - 2;
    Itbl.replace t.status vr Committed;
    Itbl.replace t.status vw Committed;
    Hashtbl.replace t.vpreds p (vr, vw);
    (vr, vw)

let fold_preds t =
  Hashtbl.iter
    (fun p ps ->
      let live n = n > 0 && status_of t n <> Committed in
      let folded_r = List.filter (fun r -> r > 0 && status_of t r = Committed) ps.preaders in
      let folded_w = List.filter (fun w -> w > 0 && status_of t w = Committed) ps.pwriters in
      if folded_r <> [] then begin
        let vr, _ = virtual_pair t p in
        List.iter (fun r -> offer ~pred:true ~dep:Rw t r vr) folded_r;
        ps.preaders <- vr :: List.filter live ps.preaders
      end;
      if folded_w <> [] then begin
        let _, vw = virtual_pair t p in
        List.iter (fun w -> offer ~dep:Wr t w vw) folded_w;
        ps.pwriters <- vw :: List.filter live ps.pwriters
      end)
    t.preds

(* Rejected closing edges are held for the finalize replay, but holding
   them marks both endpoints referenced and so blocks source retirement
   behind every transient cycle. Most rejections are transient: the
   cycle ran through an optimistic edge of a still-active transaction
   that later aborted (taking its edges with it). Retry the stash each
   prune pass: an edge with an aborted endpoint is outside the committed
   projection and can go; an edge between two committed survivors that
   now inserts cleanly is in the graph for good — the stash entry is
   redundant. Only edges that still close a cycle (or touch an active
   endpoint) are held. Entries stay newest-first, so re-offers across
   passes still happen in arrival order, as the finalize replay
   requires. *)
let retry_pending t =
  t.pending_edges <-
    List.fold_left
      (fun acc ((src, dst, dep, pred) as e) ->
        match (status_of t src, status_of t dst) with
        | Aborted, _ | _, Aborted -> acc
        | Committed, Committed -> (
          match Graph.Incremental.add_edge t.g src dst with
          | `Ok | `Exists ->
            note_kind t src dst dep pred;
            acc
          | `Cycle _ -> e :: acc)
        | _ -> e :: acc)
      []
      (List.rev t.pending_edges)

let retire_sources t =
  let referenced = Itbl.create 256 in
  let mark n = Itbl.replace referenced n () in
  Hashtbl.iter
    (fun _ (s : key_sv) ->
      List.iter
        (fun (e : era) ->
          mark e.writer;
          List.iter mark e.readers)
        s.eras)
    t.keys_sv;
  Hashtbl.iter
    (fun _ ps ->
      List.iter mark ps.preaders;
      List.iter mark ps.pwriters)
    t.preds;
  Hashtbl.iter
    (fun _ (s : key_mv) ->
      mark s.lcw;
      List.iter mark s.vorder_rev;
      List.iter mark s.pending;
      Itbl.iter
        (fun v l ->
          mark v;
          List.iter mark !l)
        s.readers)
    t.keys_mv;
  List.iter
    (fun (src, dst, _, _) ->
      mark src;
      mark dst)
    t.pending_edges;
  Itbl.iter (fun tid _ -> mark tid) t.written;
  Itbl.iter (fun tid _ -> mark tid) t.wpreds_of;
  Itbl.iter (fun tid _ -> mark tid) t.preads_of;
  let retirable n =
    n > 0
    && (match Itbl.find_opt t.status n with
       | Some Committed -> true
       | _ -> false)
    && (not (Itbl.mem referenced n))
    && Graph.Incremental.in_degree t.g n = 0
  in
  (* An Aborted entry only exists to deaden later offers that touch the
     transaction (a stale reader-list member, a held closing edge). Once
     no table or held edge names it, no rule can offer such an edge
     again, so the tombstone is dead weight. *)
  let dead =
    Itbl.fold
      (fun n st acc ->
        if n > 0 && st = Aborted && not (Itbl.mem referenced n) then n :: acc
        else acc)
      t.status []
  in
  List.iter
    (fun n ->
      Itbl.remove t.status n;
      Itbl.remove t.levels n)
    dead;
  let roots =
    Itbl.fold (fun n _ acc -> if retirable n then n :: acc else acc) t.status []
  in
  (* Removing a source exposes its successors; cascade within the pass.
     Each retired node's successors are pushed on the work stack, so the
     pass costs time in proportion to the edges it removes. *)
  let rec go = function
    | [] -> ()
    | n :: rest when not (Itbl.mem t.status n) -> go rest
    | n :: rest ->
      let succs = Graph.Incremental.succs t.g n in
      Graph.Incremental.remove_node t.g n;
      Itbl.remove t.status n;
      undoom t n;
      Itbl.remove t.levels n;
      t.pruned_nodes <- t.pruned_nodes + 1;
      go (List.fold_left (fun acc s -> if retirable s then s :: acc else acc) rest succs)
  in
  go roots;
  (* Kind entries for edges no longer in the graph (abort purges, node
     retirement) are dead; sweeping them here bounds the table by the
     live edge set, the same cadence that bounds the graph itself. *)
  if t.criterion = Mixed then begin
    let dead =
      Hashtbl.fold
        (fun (a, b) _ acc ->
          if Graph.Incremental.mem_edge t.g a b then acc else (a, b) :: acc)
        t.ekinds []
    in
    List.iter (fun k -> Hashtbl.remove t.ekinds k) dead
  end

let maybe_prune t =
  if t.prune_every > 0 then begin
    t.commits_seen <- t.commits_seen + 1;
    if t.commits_seen mod t.prune_every = 0 then begin
      t.prune_passes <- t.prune_passes + 1;
      trim_eras t;
      fold_preds t;
      retry_pending t;
      retire_sources t
    end
  end

(* {2 Multiversion rules} *)

let key_mv t k =
  match Hashtbl.find_opt t.keys_mv k with
  | Some s -> s
  | None ->
    let s =
      { lcw = 0; vorder_rev = []; readers = Itbl.create 4; pending = [] }
    in
    Hashtbl.replace t.keys_mv k s;
    s

let mv_readers s v =
  match Itbl.find_opt s.readers v with Some l -> !l | None -> []

let mv_add_reader s v tid =
  match Itbl.find_opt s.readers v with
  | Some l -> if not (List.mem tid !l) then l := tid :: !l
  | None -> Itbl.replace s.readers v (ref [ tid ])

(* The committed version directly after [v] in commit order, if any. *)
let mv_succ s v =
  if v = s.lcw then None
  else if v = 0 then
    match List.rev s.vorder_rev with w :: _ -> Some w | [] -> None
  else
    let rec go = function
      | newer :: v' :: _ when v' = v -> Some newer
      | _ :: rest -> go rest
      | [] -> None
    in
    go s.vorder_rev

let mv_read t tid k rver =
  let s = key_mv t k in
  let v =
    match rver with
    | Some v -> v
    | None -> if List.mem tid s.pending then tid else s.lcw
  in
  if v <> tid then begin
    offer ~actor:tid ~dep:Wr t v tid;
    mv_add_reader s v tid;
    (match mv_succ s v with
    | Some w -> offer ~actor:tid ~dep:Rw t tid w
    | None -> ());
    (* optimistic: a pending writer's version will follow [v] in commit
       order if it commits — unless [v] itself is pending, in which case
       their relative order is unknowable yet *)
    if not (List.mem v s.pending) then
      List.iter
        (fun w -> if w <> v then offer ~actor:tid ~dep:Rw t tid w)
        s.pending
  end

let mv_write t tid k =
  let s = key_mv t k in
  if not (List.mem tid s.pending) then begin
    s.pending <- tid :: s.pending;
    note_in t.written tid k
  end;
  (* optimistic mirrors of the commit-time edges: if tid commits, its
     version follows the currently last committed one *)
  offer ~actor:tid ~dep:Ww t s.lcw tid;
  List.iter (fun r -> offer ~actor:tid ~dep:Rw t r tid) (mv_readers s s.lcw)

let mv_commit t tid =
  List.iter
    (fun k ->
      let s = key_mv t k in
      s.pending <- List.filter (fun w -> w <> tid) s.pending;
      offer ~dep:Ww t s.lcw tid;
      List.iter (fun r -> offer ~dep:Rw t r tid) (mv_readers s s.lcw);
      s.vorder_rev <- tid :: s.vorder_rev;
      s.lcw <- tid)
    (noted t.written tid)

let mv_purge t tid =
  List.iter
    (fun k ->
      let s = key_mv t k in
      s.pending <- List.filter (fun w -> w <> tid) s.pending)
    (noted t.written tid);
  Itbl.remove t.written tid

(* {2 The feed} *)

let seen t tid =
  if not (Itbl.mem t.status tid) then Itbl.replace t.status tid Active

let observe_locked t (a : Action.t) =
  let tid = Action.txn a in
  seen t tid;
  match t.family with
  | `Locking | `Timestamp -> (
    match a with
    | Action.Read r -> sv_read t tid r.rk r.rver
    | Action.Write w -> sv_write t tid w.wk w.wpreds
    | Action.Pred_read p -> sv_pred_read t tid p.pname p.pkeys
    | Action.Commit _ ->
      Itbl.replace t.status tid Committed;
      Itbl.remove t.sealed tid;
      (* a committed transaction is never purged, so its per-txn tables
         are dead weight from here on *)
      Itbl.remove t.written tid;
      Itbl.remove t.wpreds_of tid;
      Itbl.remove t.preads_of tid;
      maybe_prune t
    | Action.Abort _ ->
      Itbl.replace t.status tid Aborted;
      Itbl.remove t.sealed tid;
      undoom t tid;
      sv_purge t tid;
      Graph.Incremental.remove_node t.g tid)
  | `Mv -> (
    match a with
    | Action.Read r -> mv_read t tid r.rk r.rver
    | Action.Write w -> mv_write t tid w.wk
    | Action.Pred_read _ -> () (* the MVSG has no predicate vocabulary *)
    | Action.Commit _ ->
      Itbl.replace t.status tid Committed;
      Itbl.remove t.sealed tid;
      mv_commit t tid;
      (* committed writers are never purged, so the write-set note is
         dead weight from here on (and would pin the node as referenced
         forever, defeating retirement) *)
      Itbl.remove t.written tid;
      maybe_prune t
    | Action.Abort _ ->
      Itbl.replace t.status tid Aborted;
      Itbl.remove t.sealed tid;
      undoom t tid;
      mv_purge t tid;
      Graph.Incremental.remove_node t.g tid)

(* Batched mode trades the heavy graph work out of the caller's critical
   section (the engine trace lock) for a two-mutex dance: [observe] only
   appends under the tiny [buf_m] — appends arrive in history order
   because the engine serializes its trace hook — and the graph catches
   up on the next [flush]/[doomed]/[finalize]. Lock order is [m] then
   [buf_m]: a flusher takes the graph lock first, so concurrent flushers
   drain whole prefixes in order and the replayed sequence equals the
   recorded history. *)
let drain_locked t =
  Mutex.lock t.buf_m;
  let pending = List.rev t.buf in
  t.buf <- [];
  Mutex.unlock t.buf_m;
  List.iter (observe_locked t) pending

let observe t _pos a =
  if t.batch then begin
    Mutex.lock t.buf_m;
    t.buf <- a :: t.buf;
    Mutex.unlock t.buf_m
  end
  else locked t (fun () -> observe_locked t a)

let flush t = if t.batch then locked t (fun () -> drain_locked t)

(* Vacuum retirement (the engine's prune hook, multiversion family): the
   engine buried these (key, writer) versions at the oldest-active-
   snapshot horizon, so no active or future snapshot can read them. Drop
   them from the version order and forget their reader tables — every rw
   edge a reader of a buried version will ever need was offered when the
   read was observed (to the version's then-successor and the pending
   writers), and surviving readers' snapshots sit at or above the
   horizon, reading surviving versions. The buffer is drained first so
   the buried writers' own Commits have reached the tables. With the
   references gone, the commit-cadence [maybe_prune] source retirement
   collects the writers themselves. *)
let mv_trim t ~buried =
  locked t (fun () ->
      if t.batch then drain_locked t;
      List.iter
        (fun (k, w) ->
          match Hashtbl.find_opt t.keys_mv k with
          | None -> ()
          | Some s ->
            if List.mem w s.vorder_rev then begin
              s.vorder_rev <- List.filter (fun x -> x <> w) s.vorder_rev;
              t.pruned_eras <- t.pruned_eras + 1
            end;
            Itbl.remove s.readers w)
        buried)

(* The doom poll. A waiting poll (the commit check) takes [m], drains
   and answers exactly, so no doomed transaction passes its commit; a
   transaction it clears is sealed, because its commit step follows with
   no poll after it, and a cycle closing before that step's Commit
   reaches the graph dooms another member instead. A non-waiting poll
   answers exactly when [m] is free; when another worker holds it —
   typically draining the feed — it answers from the published set
   instead of queueing behind that work, and a doom still in flight is
   caught by a later poll. *)
let doomed ?(wait = false) t tid =
  let exact () =
    if t.batch then drain_locked t;
    Itbl.mem t.doomed_tbl tid
  in
  if wait then
    locked t (fun () ->
        let d = exact () in
        if not d && is_active t tid then Itbl.replace t.sealed tid ();
        d)
  else if Mutex.try_lock t.m then
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) exact
  else Tids.mem tid (Atomic.get t.doomed_pub)

(* {2 Live gauges}

   A non-destructive progress reading for telemetry: unlike {!doomed}
   and {!finalize} it does *not* drain the batch buffer — the queue
   depth is the gauge — so a scrape never does graph work on behalf of
   the workers. Two short critical sections ([buf_m], then [m]), never
   nested, so a scrape cannot participate in a lock cycle. *)
type stats = {
  s_nodes : int;
  s_edges : int;
  s_queue : int;          (* batched actions not yet in the graph *)
  s_pending : int;        (* rejected closing edges held for finalize *)
  s_edges_wr : int;
  s_edges_ww : int;
  s_edges_rw : int;
  s_cycles : int;
  s_dooms : int;
  s_misses : int;
  s_tolerated : int;      (* cycles harming no member (Mixed) *)
  s_prune_passes : int;
  s_pruned_nodes : int;   (* committed nodes retired from the graph *)
  s_pruned_eras : int;    (* settled era-stack entries trimmed *)
}

let stats t =
  let queue =
    if not t.batch then 0
    else begin
      Mutex.lock t.buf_m;
      let n = List.length t.buf in
      Mutex.unlock t.buf_m;
      n
    end
  in
  locked t (fun () ->
      {
        s_nodes = Graph.Incremental.node_count t.g;
        s_edges = Graph.Incremental.edge_count t.g;
        s_queue = queue;
        s_pending = List.length t.pending_edges;
        s_edges_wr = t.edges_wr;
        s_edges_ww = t.edges_ww;
        s_edges_rw = t.edges_rw;
        s_cycles = t.cycles;
        s_dooms = t.dooms;
        s_misses = t.misses;
        s_tolerated = t.tolerated;
        s_prune_passes = t.prune_passes;
        s_pruned_nodes = t.pruned_nodes;
        s_pruned_eras = t.pruned_eras;
      })

(* {2 The final verdict}

   Purge the transactions that never terminated (they are outside the
   committed projection), then re-offer the rejected edges whose
   endpoints both committed, in arrival order. The maintained graph is
   closure-equal to the offline dependency graph of the committed
   projection, so the first re-rejection witnesses a genuine cycle —
   and if every re-offer lands, the projection is serializable.

   Serializability stops at the first witness (the exact-verdict
   contract: one committed-projection cycle falsifies it). Mixed keeps
   replaying: every re-rejection is a committed-projection cycle whose
   candidates are attributed to each committed member — a forbidden
   candidate set is harm, a permitted one a matrix cell — because a
   tolerated cycle's closing edge was deliberately left out of the
   graph during the run, and a later cycle needing that edge is only
   discoverable here. [mixed_ok] is this replay finding no harm. *)
let finalize t =
  locked t (fun () ->
      if t.batch then drain_locked t;
      let stragglers =
        Itbl.fold
          (fun n st acc -> if st = Active then n :: acc else acc)
          t.status []
      in
      let nodes = Graph.Incremental.node_count t.g in
      let edges = Graph.Incremental.edge_count t.g in
      List.iter
        (fun n ->
          Itbl.replace t.status n Aborted;
          (match t.family with
          | `Locking | `Timestamp -> sv_purge t n
          | `Mv -> mv_purge t n);
          Graph.Incremental.remove_node t.g n)
        (List.sort compare stragglers);
      let witness = ref None in
      List.iter
        (fun (src, dst, dep, pred) ->
          let both_committed =
            status_of t src = Committed && status_of t dst = Committed
          in
          match t.criterion with
          | Serializability ->
            if !witness = None && both_committed then (
              match Graph.Incremental.add_edge t.g src dst with
              | `Ok | `Exists -> ()
              | `Cycle c -> witness := Some c)
          | Mixed ->
            if both_committed then (
              match Graph.Incremental.add_edge t.g src dst with
              | `Ok | `Exists -> note_kind t src dst dep pred
              | `Cycle c ->
                if !witness = None then witness := Some c;
                let candidates = classify t c ~dep ~pred in
                List.iter
                  (fun m ->
                    if m > 0 && status_of t m = Committed then
                      if harmed t candidates m then
                        t.harmed <- t.harmed + 1
                      else
                        let l = level_of t m in
                        List.iter
                          (fun p ->
                            if
                              Spec.table4 l p <> Spec.Not_possible
                            then
                              let key = (l, p) in
                              Hashtbl.replace t.matrix key
                                (1
                                + Option.value ~default:0
                                    (Hashtbl.find_opt t.matrix key)))
                          candidates)
                  c))
        (List.rev t.pending_edges);
      let matrix =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.matrix []
        |> List.sort (fun ((l1, p1), _) ((l2, p2), _) ->
               match compare (Level.slug l1) (Level.slug l2) with
               | 0 -> compare (P.name p1) (P.name p2)
               | c -> c)
      in
      {
        mode = t.mode;
        criterion = t.criterion;
        nodes;
        edges;
        edges_wr = t.edges_wr;
        edges_ww = t.edges_ww;
        edges_rw = t.edges_rw;
        cycles = t.cycles;
        dooms = t.dooms;
        misses = t.misses;
        tolerated = t.tolerated;
        harmed = t.harmed;
        prune_passes = t.prune_passes;
        pruned_nodes = t.pruned_nodes;
        pruned_eras = t.pruned_eras;
        serializable = !witness = None;
        mixed_ok =
          (match t.criterion with
          | Serializability -> !witness = None
          | Mixed -> t.harmed = 0);
        matrix;
        witness = !witness;
        violations = List.rev t.violations;
      })

let replay ?(mode = Observe) ?family ?(criterion = Serializability)
    ?(levels = []) h =
  let family =
    match family with
    | Some f -> f
    | None -> if History.Mv.is_mv h then `Mv else `Locking
  in
  let t = create ~mode ~family ~criterion () in
  List.iter (fun (tid, level) -> note_level t ~tid ~level) levels;
  List.iteri (fun i a -> observe t i a) h;
  finalize t

(* {2 Printing} *)

let pp_mode ppf = function
  | Observe -> Fmt.string ppf "observe"
  | Enforce -> Fmt.string ppf "enforce"

let pp_cycle ppf c =
  Fmt.(list ~sep:(any " -> ") (fmt "T%d")) ppf (c @ [ List.hd c ])

let pp_violation ppf v =
  Fmt.pf ppf "%s T%d -> T%d closes %a%a%a%a" v.dep v.src v.dst pp_cycle
    v.cycle
    (fun ppf -> function
      | [] -> ()
      | cs -> Fmt.pf ppf " [%s]" (String.concat "|" cs))
    v.classes
    (fun ppf -> function
      | Some d -> Fmt.pf ppf " (doomed T%d)" d
      | None -> ())
    v.doomed
    (fun ppf -> function
      | Some l -> Fmt.pf ppf " (victim level %s)" l
      | None -> ())
    v.victim_level

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "certifier (%a%s): %d wr + %d ww + %d rw edges, %d cycle%s rejected, %d \
     doomed, %d missed%s%s; committed projection %s%s"
    pp_mode s.mode
    (match s.criterion with Serializability -> "" | Mixed -> ", mixed")
    s.edges_wr s.edges_ww s.edges_rw s.cycles
    (if s.cycles = 1 then "" else "s")
    s.dooms s.misses
    (match s.criterion with
    | Serializability -> ""
    | Mixed ->
      Fmt.str ", %d tolerated" s.tolerated)
    (if s.prune_passes = 0 then ""
     else
       Fmt.str ", %d node%s + %d era%s pruned over %d pass%s" s.pruned_nodes
         (if s.pruned_nodes = 1 then "" else "s")
         s.pruned_eras
         (if s.pruned_eras = 1 then "" else "s")
         s.prune_passes
         (if s.prune_passes = 1 then "" else "es"))
    (match s.witness with
    | None -> "serializable"
    | Some c -> Fmt.str "cyclic: %a" pp_cycle c)
    (match s.criterion with
    | Serializability -> ""
    | Mixed ->
      Fmt.str "; mixed criterion %s (%d harmed)"
        (if s.mixed_ok then "ok" else "violated")
        s.harmed)

let to_json (s : summary) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       {|{"mode":"%s","criterion":"%s","dep_edges":{"wr":%d,"ww":%d,"rw":%d},"graph":{"nodes":%d,"edges":%d},"cycles":%d,"dooms":%d,"misses":%d,"tolerated":%d,"harmed":%d,"prune":{"passes":%d,"nodes":%d,"eras":%d},"serializable":%b,"mixed_ok":%b|}
       (match s.mode with Observe -> "observe" | Enforce -> "enforce")
       (match s.criterion with
       | Serializability -> "serializability"
       | Mixed -> "mixed")
       s.edges_wr s.edges_ww s.edges_rw s.nodes s.edges s.cycles s.dooms
       s.misses s.tolerated s.harmed s.prune_passes s.pruned_nodes
       s.pruned_eras s.serializable s.mixed_ok);
  if s.criterion = Mixed then begin
    Buffer.add_string b ",\"matrix\":[";
    List.iteri
      (fun i ((l, p), n) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf {|{"level":"%s","anomaly":"%s","count":%d}|}
             (Level.slug l) (P.name p) n))
      s.matrix;
    Buffer.add_char b ']'
  end;
  (match s.witness with
  | Some c ->
    Buffer.add_string b ",\"witness\":[";
    List.iteri
      (fun i n ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (string_of_int n))
      c;
    Buffer.add_char b ']'
  | None -> ());
  Buffer.add_string b ",\"violations\":[";
  List.iteri
    (fun i (v : violation) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf {|{"dep":"%s","src":%d,"dst":%d,"cycle":[%s]%s%s%s}|}
           v.dep v.src v.dst
           (String.concat "," (List.map string_of_int v.cycle))
           (match v.doomed with
           | Some d -> Printf.sprintf {|,"doomed":%d|} d
           | None -> "")
           (match v.victim_level with
           | Some l -> Printf.sprintf {|,"victim_level":"%s"|} l
           | None -> "")
           (if v.classes = [] then ""
            else
              Printf.sprintf {|,"classes":[%s]|}
                (String.concat ","
                   (List.map (Printf.sprintf "%S") v.classes)))))
    s.violations;
  Buffer.add_string b "]}";
  Buffer.contents b
