(* Write-ahead log. The paper's second argument for P0 (§3) is that dirty
   writes break recovery: "you don't want to undo w1[x] by restoring its
   before-image, because that would wipe out w2's update". This log and the
   companion Recovery module make that argument executable.

   Torn tails. A crash can land mid-append: the newest record's header
   (its type and transaction id) survives but its payload did not — the
   torn record is visible to the log reader yet must not be trusted.
   [prefix] and [torn_prefix] build exactly these crash images, and the
   accessors split the log into the [intact] records (everything a
   recovery manager may believe) and the [torn_tail]. Because the log is
   written before the store (WAL discipline), a torn [Update] means the
   data write never happened; a torn [Commit]/[Abort] never took effect,
   so its transaction is still in flight and must be undone.

   Backends. Both store u32-length-prefixed binary records (frames). The
   in-memory log, the default and the vocabulary for crash images, keeps
   its frames in fixed-size chunks, a few bytes per record rather than a
   heap block per record; [create ~dir] instead appends them to segmented
   on-disk files — a new segment every [segment_bytes], the finished
   segment fsync'd at rotation — so a million-transaction run never
   materializes its log in memory. Appends only buffer; durability is
   [sync], which implements *group commit*: the first syncing thread
   becomes the leader, flushes and fsyncs once for every commit record
   buffered so far, and every waiter whose commit the batch covered
   returns without its own fsync.
   [checkpoint] writes a fresh-segment checkpoint record carrying the
   store image and the active transactions' undo images, then unlinks
   every segment wholly below it; the in-memory backend mirrors the same
   truncation by dropping the frames behind the checkpoint, so both
   backends run bounded-memory. Crash images built over a checkpointed
   log lean on Recovery understanding a leading Checkpoint record as the
   replay base. *)

type key = History.Action.key
type value = History.Action.value
type txn = History.Action.txn

type record =
  | Begin of txn
  | Update of { t : txn; k : key; before : value option; after : value option }
  | Commit of txn
  | Abort of txn
  | Checkpoint of {
      image : (key * value) list;
      active : (txn * (key * value option) list) list;
    }
  (* Versioned records, for the multiversion family. A version reaches
     the log in two steps: [Vinstall] per written key (the version
     exists, uncommitted) and one [Vcommit] carrying the writer's
     Commit-Timestamp (the versions became visible). A crash between the
     two — or a torn [Vcommit] — leaves the transaction in flight: its
     installed-but-unstamped versions never became visible and recovery
     discards them, the multiversion form of the torn-terminal rule. *)
  | Vinstall of { t : txn; k : key; value : value option }
  | Vcommit of { t : txn; ts : int }
  | Watermark of int
      (* the snapshot watermark advanced: versions buried below it were
         pruned, and no post-crash snapshot may start below it *)
  | Vcheckpoint of {
      chains : (key * Version_store.version list) list;
          (* per-key committed version chains, newest first *)
      next_ts : int;    (* the commit-timestamp clock at the checkpoint *)
      watermark : int;  (* snapshot watermark at the checkpoint *)
      active : txn list;
          (* transactions in flight — their writes are privately
             buffered, not in the chains, so no undo journal is needed *)
    }

let pp_record ppf = function
  | Begin t -> Fmt.pf ppf "BEGIN(T%d)" t
  | Update { t; k; before; after } ->
    Fmt.pf ppf "UPDATE(T%d, %s, %a -> %a)" t k
      Fmt.(option ~none:(any "absent") int)
      before
      Fmt.(option ~none:(any "absent") int)
      after
  | Commit t -> Fmt.pf ppf "COMMIT(T%d)" t
  | Abort t -> Fmt.pf ppf "ABORT(T%d)" t
  | Checkpoint { image; active } ->
    Fmt.pf ppf "CHECKPOINT(%d keys, %d active)" (List.length image)
      (List.length active)
  | Vinstall { t; k; value } ->
    Fmt.pf ppf "VINSTALL(T%d, %s, %a)" t k
      Fmt.(option ~none:(any "del") int)
      value
  | Vcommit { t; ts } -> Fmt.pf ppf "VCOMMIT(T%d, ts %d)" t ts
  | Watermark w -> Fmt.pf ppf "WATERMARK(%d)" w
  | Vcheckpoint { chains; watermark; active; _ } ->
    Fmt.pf ppf "VCHECKPOINT(%d keys, wm %d, %d active)" (List.length chains)
      watermark (List.length active)

(* {2 Binary codec}

   Each on-disk record is a u32-LE length followed by the body: a tag
   byte, ints as i64 LE, keys as u16-LE length + bytes, optional values
   as a presence byte. Nothing here is meant to be portable or versioned
   — it is the run's own scratch log — but the length prefix is what
   gives the loader its torn-tail rule: a trailing record whose length or
   body is cut off never became durable. *)

let add_opt b = function
  | None -> Buffer.add_uint8 b 0
  | Some v ->
    Buffer.add_uint8 b 1;
    Buffer.add_int64_le b (Int64.of_int v)

let add_key b k =
  Buffer.add_uint16_le b (String.length k);
  Buffer.add_string b k

let encode_body b = function
  | Begin t ->
    Buffer.add_uint8 b (Char.code 'B');
    Buffer.add_int64_le b (Int64.of_int t)
  | Commit t ->
    Buffer.add_uint8 b (Char.code 'C');
    Buffer.add_int64_le b (Int64.of_int t)
  | Abort t ->
    Buffer.add_uint8 b (Char.code 'A');
    Buffer.add_int64_le b (Int64.of_int t)
  | Update { t; k; before; after } ->
    Buffer.add_uint8 b (Char.code 'U');
    Buffer.add_int64_le b (Int64.of_int t);
    add_key b k;
    add_opt b before;
    add_opt b after
  | Checkpoint { image; active } ->
    Buffer.add_uint8 b (Char.code 'K');
    Buffer.add_int32_le b (Int32.of_int (List.length image));
    List.iter
      (fun (k, v) ->
        add_key b k;
        Buffer.add_int64_le b (Int64.of_int v))
      image;
    Buffer.add_int32_le b (Int32.of_int (List.length active));
    List.iter
      (fun (t, undo) ->
        Buffer.add_int64_le b (Int64.of_int t);
        Buffer.add_int32_le b (Int32.of_int (List.length undo));
        List.iter
          (fun (k, before) ->
            add_key b k;
            add_opt b before)
          undo)
      active
  | Vinstall { t; k; value } ->
    Buffer.add_uint8 b (Char.code 'I');
    Buffer.add_int64_le b (Int64.of_int t);
    add_key b k;
    add_opt b value
  | Vcommit { t; ts } ->
    Buffer.add_uint8 b (Char.code 'V');
    Buffer.add_int64_le b (Int64.of_int t);
    Buffer.add_int64_le b (Int64.of_int ts)
  | Watermark w ->
    Buffer.add_uint8 b (Char.code 'W');
    Buffer.add_int64_le b (Int64.of_int w)
  | Vcheckpoint { chains; next_ts; watermark; active } ->
    Buffer.add_uint8 b (Char.code 'M');
    Buffer.add_int64_le b (Int64.of_int next_ts);
    Buffer.add_int64_le b (Int64.of_int watermark);
    Buffer.add_int32_le b (Int32.of_int (List.length active));
    List.iter (fun t -> Buffer.add_int64_le b (Int64.of_int t)) active;
    Buffer.add_int32_le b (Int32.of_int (List.length chains));
    List.iter
      (fun (k, vs) ->
        add_key b k;
        Buffer.add_int32_le b (Int32.of_int (List.length vs));
        List.iter
          (fun v ->
            add_opt b v.Version_store.value;
            Buffer.add_int64_le b (Int64.of_int v.Version_store.writer);
            Buffer.add_int64_le b (Int64.of_int v.Version_store.commit_ts))
          vs)
      chains

exception Truncated

let get_i64 s pos =
  if !pos + 8 > Bytes.length s then raise Truncated;
  let v = Int64.to_int (Bytes.get_int64_le s !pos) in
  pos := !pos + 8;
  v

let get_u8 s pos =
  if !pos + 1 > Bytes.length s then raise Truncated;
  let v = Bytes.get_uint8 s !pos in
  incr pos;
  v

let get_u32 s pos =
  if !pos + 4 > Bytes.length s then raise Truncated;
  let v = Int32.to_int (Bytes.get_int32_le s !pos) in
  pos := !pos + 4;
  v

let get_key s pos =
  if !pos + 2 > Bytes.length s then raise Truncated;
  let n = Bytes.get_uint16_le s !pos in
  pos := !pos + 2;
  if !pos + n > Bytes.length s then raise Truncated;
  let k = Bytes.sub_string s !pos n in
  pos := !pos + n;
  k

let get_opt s pos =
  match get_u8 s pos with 0 -> None | _ -> Some (get_i64 s pos)

let decode_body s =
  let pos = ref 0 in
  match Char.chr (get_u8 s pos) with
  | 'B' -> Begin (get_i64 s pos)
  | 'C' -> Commit (get_i64 s pos)
  | 'A' -> Abort (get_i64 s pos)
  | 'U' ->
    let t = get_i64 s pos in
    let k = get_key s pos in
    let before = get_opt s pos in
    let after = get_opt s pos in
    Update { t; k; before; after }
  | 'K' ->
    let nk = get_u32 s pos in
    let image =
      List.init nk (fun _ ->
          let k = get_key s pos in
          (k, get_i64 s pos))
    in
    let na = get_u32 s pos in
    let active =
      List.init na (fun _ ->
          let t = get_i64 s pos in
          let nu = get_u32 s pos in
          (t, List.init nu (fun _ ->
               let k = get_key s pos in
               (k, get_opt s pos))))
    in
    Checkpoint { image; active }
  | 'I' ->
    let t = get_i64 s pos in
    let k = get_key s pos in
    Vinstall { t; k; value = get_opt s pos }
  | 'V' ->
    let t = get_i64 s pos in
    Vcommit { t; ts = get_i64 s pos }
  | 'W' -> Watermark (get_i64 s pos)
  | 'M' ->
    let next_ts = get_i64 s pos in
    let watermark = get_i64 s pos in
    let na = get_u32 s pos in
    let active = List.init na (fun _ -> get_i64 s pos) in
    let nk = get_u32 s pos in
    let chains =
      List.init nk (fun _ ->
          let k = get_key s pos in
          let nv = get_u32 s pos in
          ( k,
            List.init nv (fun _ ->
                let value = get_opt s pos in
                let writer = get_i64 s pos in
                { Version_store.value; writer; commit_ts = get_i64 s pos }) ))
    in
    Vcheckpoint { chains; next_ts; watermark; active }
  | _ -> raise Truncated

(* {2 Backends} *)

type disk = {
  dir : string;
  segment_bytes : int;
  group_commit : bool;
  mutable seg_index : int;        (* current segment number *)
  mutable chan : out_channel;
  mutable fd : Unix.file_descr;
  mutable seg_bytes : int;        (* bytes written to the current segment *)
  mutable closed_bytes : int;     (* bytes in closed, still-live segments *)
  mutable segments : int;         (* live segment count, current included *)
  scratch : Buffer.t;
  (* group commit; [sync_m] is never held while [m] is taken *)
  sync_m : Mutex.t;
  sync_cv : Condition.t;
  mutable flushing : bool;
  mutable appended_lsn : int;     (* records appended (buffered) *)
  mutable durable_lsn : int;      (* records known durable *)
  mutable commits_pending : int;  (* commit records since the last flush *)
  mutable syncs : int;
  batch_hist : int array;         (* syncs by log2(commit batch size) *)
  mutable checkpoints : int;
  mutable truncated : int;        (* segments unlinked below checkpoints *)
}

(* In memory, frames fill [cur] until it reaches [chunk_bytes] and is
   sealed into [sealed]; no frame straddles two chunks. *)
type mem = {
  mutable sealed : string list; (* newest first *)
  cur : Buffer.t;
  body : Buffer.t;              (* encoding scratch *)
}

type backend = Mem of mem | Disk of disk

type t = {
  mutable torn : bool;           (* the newest record is a torn tail *)
  m : Mutex.t;
  mutable count : int;
  backend : backend;
}

let batch_buckets = 8 (* 1, 2, 3-4, 5-8, ... 65+ *)

let bucket_of_batch n =
  let rec go b n = if n <= 1 || b >= batch_buckets - 1 then b else go (b + 1) ((n + 1) / 2) in
  go 0 n

let segment_name i = Printf.sprintf "wal-%08d.seg" i

let chunk_bytes = 65536

let mem_create () =
  { sealed = []; cur = Buffer.create 256; body = Buffer.create 64 }

let mem_write m r =
  Buffer.clear m.body;
  encode_body m.body r;
  Buffer.add_int32_le m.cur (Int32.of_int (Buffer.length m.body));
  Buffer.add_buffer m.cur m.body;
  if Buffer.length m.cur >= chunk_bytes then begin
    m.sealed <- Buffer.contents m.cur :: m.sealed;
    Buffer.clear m.cur
  end

let open_segment dir i =
  let path = Filename.concat dir (segment_name i) in
  let chan =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
      path
  in
  (chan, Unix.descr_of_out_channel chan)

let default_segment_bytes = 4 * 1024 * 1024

let create ?dir ?(segment_bytes = default_segment_bytes)
    ?(group_commit = true) () =
  let backend =
    match dir with
    | None -> Mem (mem_create ())
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let chan, fd = open_segment dir 0 in
      Disk
        {
          dir;
          segment_bytes = max 512 segment_bytes;
          group_commit;
          seg_index = 0;
          chan;
          fd;
          seg_bytes = 0;
          closed_bytes = 0;
          segments = 1;
          scratch = Buffer.create 256;
          sync_m = Mutex.create ();
          sync_cv = Condition.create ();
          flushing = false;
          appended_lsn = 0;
          durable_lsn = 0;
          commits_pending = 0;
          syncs = 0;
          batch_hist = Array.make batch_buckets 0;
          checkpoints = 0;
          truncated = 0;
        }
  in
  { torn = false; m = Mutex.create (); count = 0; backend }

let fsync_quiet fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

(* Holding [t.m]: serialize one record into the current segment, rotating
   (flush + fsync + fresh file) when the segment is full. Rotation leaves
   [durable_lsn] alone — conservative, the next [sync] just re-fsyncs the
   young segment. *)
let disk_write d r =
  Buffer.clear d.scratch;
  encode_body d.scratch r;
  let len = Buffer.length d.scratch in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int len);
  output_bytes d.chan hdr;
  Buffer.output_buffer d.chan d.scratch;
  d.seg_bytes <- d.seg_bytes + 4 + len;
  d.appended_lsn <- d.appended_lsn + 1;
  (match r with
  | Commit _ | Vcommit _ -> d.commits_pending <- d.commits_pending + 1
  | _ -> ());
  if d.seg_bytes >= d.segment_bytes then begin
    flush d.chan;
    fsync_quiet d.fd;
    close_out d.chan;
    d.closed_bytes <- d.closed_bytes + d.seg_bytes;
    d.seg_index <- d.seg_index + 1;
    let chan, fd = open_segment d.dir d.seg_index in
    d.chan <- chan;
    d.fd <- fd;
    d.seg_bytes <- 0;
    d.segments <- d.segments + 1
  end

let append log r =
  Mutex.lock log.m;
  (match log.backend with
  | Mem m -> mem_write m r
  | Disk d -> disk_write d r);
  log.count <- log.count + 1;
  Mutex.unlock log.m

(* {2 Group commit}

   The caller of [sync] needs every record it has appended to be durable.
   Capture the append LSN, then race to become the flusher: the leader
   flushes the channel and fsyncs once, covering every record — and every
   commit — buffered by the time it runs; concurrent callers whose LSN
   the batch covered return without touching the disk. One fsync per
   *batch* of commits is the whole point (cf. the group-commit section of
   the Postgres recovery chapter); the histogram of commits-per-fsync is
   the measurable evidence. With [group_commit = false] every caller
   flushes and fsyncs itself — the per-commit-fsync baseline the bench
   compares against. *)
let sync log =
  match log.backend with
  | Mem _ -> ()
  | Disk d ->
    Mutex.lock log.m;
    let target = d.appended_lsn in
    Mutex.unlock log.m;
    let flush_once () =
      Mutex.lock log.m;
      flush d.chan;
      let flushed = d.appended_lsn in
      let commits = d.commits_pending in
      d.commits_pending <- 0;
      let fd = d.fd in
      Mutex.unlock log.m;
      fsync_quiet fd;
      (flushed, commits)
    in
    if not d.group_commit then begin
      let flushed, commits = flush_once () in
      Mutex.lock d.sync_m;
      d.durable_lsn <- max d.durable_lsn flushed;
      d.syncs <- d.syncs + 1;
      if commits > 0 then
        d.batch_hist.(bucket_of_batch commits) <-
          d.batch_hist.(bucket_of_batch commits) + 1;
      Mutex.unlock d.sync_m
    end
    else begin
      Mutex.lock d.sync_m;
      let rec wait_or_lead () =
        if d.durable_lsn >= target then Mutex.unlock d.sync_m
        else if d.flushing then begin
          Condition.wait d.sync_cv d.sync_m;
          wait_or_lead ()
        end
        else begin
          d.flushing <- true;
          Mutex.unlock d.sync_m;
          let flushed, commits = flush_once () in
          Mutex.lock d.sync_m;
          d.durable_lsn <- max d.durable_lsn flushed;
          d.flushing <- false;
          d.syncs <- d.syncs + 1;
          if commits > 0 then
            d.batch_hist.(bucket_of_batch commits) <-
              d.batch_hist.(bucket_of_batch commits) + 1;
          Condition.broadcast d.sync_cv;
          wait_or_lead ()
        end
      in
      wait_or_lead ()
    end

(* {2 Checkpoints and truncation}

   A checkpoint opens a fresh segment whose first record carries the
   store image and, for each still-active transaction, the before-images
   it would need undone (its undo journal). Once that record is durable,
   every older segment is history — its effects are all in the image —
   and is unlinked. The in-memory backend mirrors the truncation exactly:
   the records list restarts at the checkpoint. Recovery treats a log
   whose first intact record is a Checkpoint as starting from its
   image.

   [checkpoint_record] is the general form: any record that fully
   captures the replay base — the single-version [Checkpoint] or the
   multiversion [Vcheckpoint] — rides the same fresh-segment-plus-
   truncation discipline. *)
let checkpoint_record log r =
  Mutex.lock log.m;
  (match log.backend with
  | Mem m ->
    m.sealed <- [];
    Buffer.clear m.cur;
    mem_write m r;
    log.count <- 1
  | Disk d ->
    (* make everything below the checkpoint durable, then start fresh *)
    flush d.chan;
    fsync_quiet d.fd;
    close_out d.chan;
    let retired = d.seg_index in
    d.seg_index <- d.seg_index + 1;
    let chan, fd = open_segment d.dir d.seg_index in
    d.chan <- chan;
    d.fd <- fd;
    d.seg_bytes <- 0;
    disk_write d r;
    flush d.chan;
    fsync_quiet d.fd;
    let flushed = d.appended_lsn in
    d.commits_pending <- 0;
    (* the checkpoint is durable: segments wholly below it are garbage *)
    for i = 0 to retired do
      let p = Filename.concat d.dir (segment_name i) in
      if Sys.file_exists p then begin
        (try Sys.remove p with Sys_error _ -> ());
        d.truncated <- d.truncated + 1
      end
    done;
    d.closed_bytes <- 0;
    d.segments <- 1;
    d.checkpoints <- d.checkpoints + 1;
    log.count <- 1;
    Mutex.unlock log.m;
    Mutex.lock d.sync_m;
    d.durable_lsn <- max d.durable_lsn flushed;
    Mutex.unlock d.sync_m;
    Mutex.lock log.m);
  Mutex.unlock log.m

let checkpoint log ~image ~active =
  checkpoint_record log (Checkpoint { image; active })

let close log =
  Mutex.lock log.m;
  (match log.backend with
  | Mem _ -> ()
  | Disk d ->
    flush d.chan;
    fsync_quiet d.fd;
    (try close_out d.chan with Sys_error _ -> ()));
  Mutex.unlock log.m

(* {2 Read-back}

   [records] decodes the frames — the in-memory chunks, or every live
   disk segment, oldest first. A trailing record cut short (length or
   body incomplete — a real torn tail) is dropped: it never became
   durable, which is exactly the torn-record rule the in-memory crash
   images encode explicitly. *)

(* The records framed in [s], consed onto [acc]: newest first. *)
let decode_frames acc s =
  let b = Bytes.unsafe_of_string s in
  let rec go acc pos =
    if pos + 4 > Bytes.length b then acc
    else
      let len = Int32.to_int (Bytes.get_int32_le b pos) in
      if len < 0 || pos + 4 + len > Bytes.length b then acc
      else
        match decode_body (Bytes.sub b (pos + 4) len) with
        | r -> go (r :: acc) (pos + 4 + len)
        | exception Truncated -> acc
  in
  go acc 0

let decode_segment acc path =
  decode_frames acc (In_channel.with_open_bin path In_channel.input_all)

let disk_segments d =
  Sys.readdir d.dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".seg")
  |> List.sort compare
  |> List.map (Filename.concat d.dir)

(* Newest first. *)
let records_rev log =
  Mutex.lock log.m;
  let rs =
    match log.backend with
    | Mem m ->
      List.fold_left decode_frames [] (List.rev (Buffer.contents m.cur :: m.sealed))
    | Disk d ->
      flush d.chan;
      List.fold_left decode_segment [] (disk_segments d)
  in
  Mutex.unlock log.m;
  rs

let records log = List.rev (records_rev log)

(* Only a crash image is torn, and only in memory. *)
let torn_tail log =
  if not log.torn then None
  else match records_rev log with r :: _ -> Some r | [] -> None

let intact log =
  match records_rev log with
  | _ :: rest when log.torn -> List.rev rest
  | rs -> List.rev rs

(* Live (post-truncation) record count; O(1), the monitor polls it. *)
let length log =
  Mutex.lock log.m;
  let n = log.count in
  Mutex.unlock log.m;
  n

(* Terminal-record accounting believes only intact records: a Commit,
   Vcommit or Abort torn off the tail never took effect. *)
let committed log =
  List.filter_map
    (function Commit t | Vcommit { t; _ } -> Some t | _ -> None)
    (intact log)

let aborted log =
  List.filter_map (function Abort t -> Some t | _ -> None) (intact log)

(* Transactions in flight at the crash: an intact Begin — or a carried
   entry in the leading checkpoint's active list — with no intact
   terminal record (Commit, Vcommit or Abort). A transaction whose
   terminal is the torn tail is in flight too, and so is one whose
   Vinstalls survived but whose commit stamp did not: versions without a
   stamp never became visible. The membership tables keep this linear in
   the log, which matters to crash-point enumeration (it calls [losers]
   once per prefix). *)
let losers log =
  let rs = intact log in
  let carried =
    match rs with
    | Checkpoint { active; _ } :: _ -> List.map fst active
    | Vcheckpoint { active; _ } :: _ -> active
    | _ -> []
  in
  let ended = Hashtbl.create 16 in
  List.iter
    (function
      | Commit t | Abort t | Vcommit { t; _ } -> Hashtbl.replace ended t ()
      | _ -> ())
    rs;
  List.filter (fun t -> not (Hashtbl.mem ended t)) carried
  @ List.filter_map
      (function Begin t when not (Hashtbl.mem ended t) -> Some t | _ -> None)
      rs

(* {2 Crash images} *)

let take n xs =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] xs

(* An in-memory log of [records], given in append order. *)
let mem_of records torn =
  let m = mem_create () in
  List.iter (mem_write m) records;
  { torn; m = Mutex.create (); count = List.length records; backend = Mem m }

let prefix log n =
  let rs = records log in
  let len = List.length rs in
  if n < 0 || n > len then
    invalid_arg (Fmt.str "Wal.prefix: %d not in [0, %d]" n len);
  mem_of (take n rs) false

let torn_prefix log n =
  let rs = records log in
  let len = List.length rs in
  if n < 1 || n > len then
    invalid_arg (Fmt.str "Wal.torn_prefix: %d not in [1, %d]" n len);
  mem_of (take n rs) true

(* Reopen a log directory after a (real or simulated) crash: decode what
   survived into an in-memory image. A trailing partial record was torn
   off by the crash and is dropped, per the WAL rule. *)
let load ~dir =
  let d = { (* only [dir] matters for reading *)
            dir; segment_bytes = 0; group_commit = false; seg_index = 0;
            chan = stdout; fd = Unix.stdout; seg_bytes = 0; closed_bytes = 0;
            segments = 0; scratch = Buffer.create 1;
            sync_m = Mutex.create (); sync_cv = Condition.create ();
            flushing = false; appended_lsn = 0; durable_lsn = 0;
            commits_pending = 0; syncs = 0;
            batch_hist = Array.make batch_buckets 0; checkpoints = 0;
            truncated = 0 }
  in
  let rs = List.fold_left decode_segment [] (disk_segments d) in
  mem_of (List.rev rs) false

(* {2 Telemetry} *)

type stats = {
  w_records : int;
  w_segments : int;
  w_disk_bytes : int;
  w_syncs : int;
  w_checkpoints : int;
  w_truncated_segments : int;
  w_batch_hist : (int * int) list;
      (* (batch-size bucket upper bound, fsyncs) — group-commit evidence *)
}

let stats log =
  Mutex.lock log.m;
  let s =
    match log.backend with
    | Mem _ ->
      {
        w_records = log.count;
        w_segments = 0;
        w_disk_bytes = 0;
        w_syncs = 0;
        w_checkpoints = 0;
        w_truncated_segments = 0;
        w_batch_hist = [];
      }
    | Disk d ->
      let hist = Array.copy d.batch_hist in
      {
        w_records = log.count;
        w_segments = d.segments;
        w_disk_bytes = d.closed_bytes + d.seg_bytes;
        w_syncs = d.syncs;
        w_checkpoints = d.checkpoints;
        w_truncated_segments = d.truncated;
        w_batch_hist =
          List.filteri
            (fun _ (_, n) -> n > 0)
            (List.init batch_buckets (fun i -> (1 lsl i, hist.(i))));
      }
  in
  Mutex.unlock log.m;
  s

let pp ppf log =
  Fmt.(list ~sep:sp pp_record) ppf (intact log);
  match torn_tail log with
  | None -> ()
  | Some r -> Fmt.pf ppf " ~torn~%a" pp_record r
