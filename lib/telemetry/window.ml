(* Interval telemetry: diff two cumulative readings into what happened
   between them. Every consumer of live numbers — `stress --telemetry`,
   `loadgen --progress`, the `top` dashboard — quotes intervals, not
   lifetime totals, and they all go through this one type so the
   arithmetic (and its racy-tolerance caveats) lives in one place.

   A sample is deliberately compact and self-describing: it can be cut
   from a local {!Runtime.Metrics.snapshot} or rebuilt from the JSON a
   server's STATS reply carries, so the dashboard does the same math as
   the in-process reporters. *)

module J = Trace.Json
module Metrics = Runtime.Metrics

type sample = {
  at : float;
  committed : int;
  aborted : int;
  aborted_by : (string * int) list; (* reason slug -> cumulative count *)
  retries : int;
  giveups : int;
  deadlocks : int;
  stalls : int;
  certifier_aborts : int;
  per_level : (string * int * int * int) list;
      (* level slug -> cumulative committed, aborted, doomed *)
  lat_hist : int array; (* cumulative log2 bucket counts; may be [||] *)
  epoch : int;
  epoch_max_ns : int array; (* per-epoch max latency ring; may be [||] *)
}

let of_snapshot (s : Metrics.snapshot) =
  {
    at = s.taken_at;
    committed = s.committed;
    aborted = s.aborted_total;
    aborted_by =
      List.map (fun (r, n) -> (Metrics.abort_reason_slug r, n)) s.aborted;
    retries = s.retries;
    giveups = s.giveups;
    deadlocks = s.deadlocks;
    stalls = s.stalls;
    certifier_aborts = s.certifier_aborts;
    per_level =
      List.map
        (fun (l : Metrics.level_stats) ->
          (Isolation.Level.slug l.level, l.l_committed, l.l_aborted, l.l_doomed))
        s.per_level;
    lat_hist = s.lat_hist;
    epoch = s.epoch;
    epoch_max_ns = s.epoch_max_ns;
  }

(* Rebuild a sample from the [Metrics.to_json] object (the ["metrics"]
   member of a STATS reply). Total: a malformed or truncated object is
   [None], missing optional members default to empty. *)
let of_json j =
  let int k = Option.bind (J.member k j) J.to_int_opt in
  let zero k = Option.value ~default:0 (int k) in
  match (Option.bind (J.member "taken_at" j) J.to_float_opt, int "committed") with
  | None, _ | _, None -> None
  | Some at, Some committed ->
    let aborted_by =
      match J.member "aborted" j with
      | Some (J.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_int_opt v))
          fields
      | _ -> []
    in
    let per_level =
      match J.member "per_level" j with
      | Some (J.Obj fields) ->
        List.filter_map
          (fun (slug, v) ->
            let f k = Option.bind (J.member k v) J.to_int_opt in
            match (f "committed", f "aborted", f "doomed") with
            | Some c, Some a, Some d -> Some (slug, c, a, d)
            | _ -> None)
          fields
      | _ -> []
    in
    let ints k =
      match Option.bind (J.member k j) J.to_list with
      | Some xs ->
        Array.of_list
          (List.map (fun x -> Option.value ~default:0 (J.to_int_opt x)) xs)
      | None -> [||]
    in
    Some
      {
        at;
        committed;
        aborted = zero "aborted_total";
        aborted_by;
        retries = zero "retries";
        giveups = zero "giveups";
        deadlocks = zero "deadlocks";
        stalls = zero "stalls";
        certifier_aborts = zero "certifier_aborts";
        per_level;
        lat_hist = ints "lat_hist";
        epoch = zero "epoch";
        epoch_max_ns = ints "epoch_max_ns";
      }

type rates = {
  interval_s : float;
  d_committed : int;
  d_aborted : int;
  d_aborted_by : (string * int) list; (* non-zero deltas only *)
  d_retries : int;
  d_giveups : int;
  d_deadlocks : int;
  d_stalls : int;
  d_certifier_aborts : int;
  d_per_level : (string * int * int * int) list;
  commit_rate : float;
  abort_rate : float;
  lat_p50_ms : float;
  lat_p99_ms : float;
}

(* Each cumulative counter is individually monotone, but two samples of
   a *set* of counters are only approximately mutually consistent while
   workers run ({!Runtime.Metrics.snapshot}'s live contract) — so every
   delta clamps at zero rather than trusting subtraction blindly. *)
let d a b = max 0 (b - a)

let assoc_delta older newer =
  List.filter_map
    (fun (k, n) ->
      let prev = Option.value ~default:0 (List.assoc_opt k older) in
      if n - prev > 0 then Some (k, n - prev) else None)
    newer

(* The largest commit latency recorded between the two samples, in ms:
   the max over the epochs the newer sample closed since the older one,
   when its ring still holds them all; otherwise unknown ([infinity]). *)
let interval_max_ms (older : sample) (newer : sample) =
  let n = Array.length newer.epoch_max_ns in
  let span = newer.epoch - older.epoch in
  if n = 0 || span <= 0 || span > n then infinity
  else begin
    let m = ref 0 in
    for e = older.epoch + 1 to newer.epoch do
      m := max !m newer.epoch_max_ns.(e mod n)
    done;
    float !m /. 1e6
  end

let delta (older : sample) (newer : sample) =
  let interval_s = Float.max 1e-9 (newer.at -. older.at) in
  let d_committed = d older.committed newer.committed in
  let d_aborted = d older.aborted newer.aborted in
  let hist =
    if Array.length newer.lat_hist = 0 then [||]
    else if Array.length older.lat_hist <> Array.length newer.lat_hist then
      newer.lat_hist (* first interval: the cumulative counts are the delta *)
    else Array.mapi (fun i n -> d older.lat_hist.(i) n) newer.lat_hist
  in
  let htotal = Array.fold_left ( + ) 0 hist in
  (* Interpolation can land above the interval's largest sample in its
     top bucket; a quantile never exceeds that max. *)
  let quantile q =
    Float.min (interval_max_ms older newer) (Metrics.hist_quantile hist htotal q)
  in
  let d_per_level =
    List.filter_map
      (fun (slug, c, a, dm) ->
        let pc, pa, pd =
          match
            List.find_opt (fun (s, _, _, _) -> s = slug) older.per_level
          with
          | Some (_, pc, pa, pd) -> (pc, pa, pd)
          | None -> (0, 0, 0)
        in
        let c = d pc c and a = d pa a and dm = d pd dm in
        if c + a + dm > 0 then Some (slug, c, a, dm) else None)
      newer.per_level
  in
  {
    interval_s;
    d_committed;
    d_aborted;
    d_aborted_by = assoc_delta older.aborted_by newer.aborted_by;
    d_retries = d older.retries newer.retries;
    d_giveups = d older.giveups newer.giveups;
    d_deadlocks = d older.deadlocks newer.deadlocks;
    d_stalls = d older.stalls newer.stalls;
    d_certifier_aborts = d older.certifier_aborts newer.certifier_aborts;
    d_per_level;
    commit_rate = float d_committed /. interval_s;
    abort_rate = float d_aborted /. interval_s;
    lat_p50_ms = quantile 0.50;
    lat_p99_ms = quantile 0.99;
  }

let pp_rates ppf r =
  Fmt.pf ppf "%6.1f txn/s  committed %d  aborted %d" r.commit_rate r.d_committed
    r.d_aborted;
  if r.lat_p50_ms > 0. then
    Fmt.pf ppf "  p50 %.2fms p99 %.2fms" r.lat_p50_ms r.lat_p99_ms;
  if r.d_retries > 0 then Fmt.pf ppf "  retries %d" r.d_retries;
  if r.d_deadlocks > 0 then Fmt.pf ppf "  deadlocks %d" r.d_deadlocks;
  if r.d_certifier_aborts > 0 then
    Fmt.pf ppf "  dooms %d" r.d_certifier_aborts;
  if r.d_giveups > 0 then Fmt.pf ppf "  giveups %d" r.d_giveups
