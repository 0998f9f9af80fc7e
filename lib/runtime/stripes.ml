(* Striped synchronization: an array of mutexes indexed by key hash, and
   sharded counters whose increments land on per-domain atomic cells.
   Both exist to keep the worker pool off single points of contention. *)

type t = Mutex.t array

let create n = Array.init (max 1 n) (fun _ -> Mutex.create ())
let size = Array.length

(* The same key-to-stripe map the sharded store and the striped lock
   table use — one hash, so "hold the key's stripe" covers the key's
   store shard and lock bucket at once. *)
let stripe_of_key t k = Storage.Shard.of_key ~shards:(Array.length t) k

(* Acquire stripe [i], reporting whether the lock was contended: a failed
   [try_lock] means another worker holds the stripe right now, which is
   the signal the contention counters (and the [Stripe_wait] trace event)
   want — cheap, and exact enough for a ratio. A contended acquire retries
   [try_lock] up to [spin] times before it parks in [Mutex.lock]. *)
let acquire ?(spin = 0) t i =
  let m = t.(i) in
  if Mutex.try_lock m then false
  else begin
    let rec spun n =
      n > 0
      && begin
        Domain.cpu_relax ();
        Mutex.try_lock m || spun (n - 1)
      end
    in
    if not (spun spin) then Mutex.lock m;
    true
  end

let release t i = Mutex.unlock t.(i)

module Counter = struct
  (* One row per cell, one atomic per counter in each: a domain's
     increments stay in its own row whichever counter they hit. *)
  type t = int Atomic.t array array

  let create ?(stripes = 16) ?(counters = 1) () =
    Array.init (max 1 stripes) (fun _ ->
        Array.init (max 1 counters) (fun _ -> Atomic.make 0))

  let add_at t i n =
    let row = t.((Domain.self () :> int) mod Array.length t) in
    ignore (Atomic.fetch_and_add row.(i) n)

  let incr t = add_at t 0 1

  let sum_at t i = Array.fold_left (fun acc row -> acc + Atomic.get row.(i)) 0 t

  let sum t = sum_at t 0
end
