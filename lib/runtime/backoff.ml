(* Capped exponential backoff with full jitter for transaction restarts.
   One instance per worker; not thread-safe (each domain owns its own
   Random.State). *)

let base_us = 200.
let cap_us = 20_000.

type t = { rng : Random.State.t; mutable window_us : float; mutable count : int }

let create ?rng () =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 0x0ff5e7 |]
  in
  { rng; window_us = base_us; count = 0 }

let reset t = t.window_us <- base_us

let wait t =
  let slice_us = Random.State.float t.rng t.window_us in
  t.count <- t.count + 1;
  t.window_us <- Float.min cap_us (t.window_us *. 2.);
  Unix.sleepf (slice_us /. 1e6)

let waits t = t.count
