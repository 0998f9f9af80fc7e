(* Attempt journal for the worker pool: striped append-only buffers (one
   stripe per worker, so appends are contention-free) ordered globally by
   an atomic sequence number. *)

type outcome = Committed | Aborted of Core.Engine.abort_reason

type entry = {
  seq : int;
  job : int;
  name : string;
  level : Isolation.Level.t;
  tid : History.Action.txn;
  attempt : int;
  worker : int;
  start_ns : int;
  finish_ns : int;
  outcome : outcome;
}

type t = {
  stripes : Stripes.t;
  buffers : entry list ref array; (* newest first, one per stripe *)
  next_seq : int Atomic.t;
}

let create ~stripes =
  let n = max 1 stripes in
  {
    stripes = Stripes.create n;
    buffers = Array.init n (fun _ -> ref []);
    next_seq = Atomic.make 0;
  }

let record t ~job ~name ~level ~tid ~attempt ~worker ~start_ns ~finish_ns
    outcome =
  let seq = Atomic.fetch_and_add t.next_seq 1 in
  let e =
    { seq; job; name; level; tid; attempt; worker; start_ns; finish_ns; outcome }
  in
  let i = worker mod Array.length t.buffers in
  ignore (Stripes.acquire t.stripes i : bool);
  t.buffers.(i) := e :: !(t.buffers.(i));
  Stripes.release t.stripes i

let entries t =
  Array.to_list t.buffers
  |> List.concat_map (fun b -> !b)
  |> List.sort (fun a b -> compare a.seq b.seq)
