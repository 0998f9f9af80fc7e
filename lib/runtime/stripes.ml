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

let with_index t i f =
  let m = t.(((i mod Array.length t) + Array.length t) mod Array.length t) in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let with_key t k f = with_index t (stripe_of_key t k) f

module Counter = struct
  type t = int Atomic.t array

  let create ?(stripes = 16) () =
    Array.init (max 1 stripes) (fun _ -> Atomic.make 0)

  let cell t =
    t.((Domain.self () :> int) mod Array.length t)

  let add t n = ignore (Atomic.fetch_and_add (cell t) n)
  let incr t = add t 1
  let sum t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t
end
