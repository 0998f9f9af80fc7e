(* Capped exponential backoff with full jitter. One instance per worker;
   not thread-safe (each domain owns its own Random.State). *)

type config = { base_us : float; cap_us : float; multiplier : float }

let default = { base_us = 20.; cap_us = 2_000.; multiplier = 2. }

type t = {
  cfg : config;
  rng : Random.State.t;
  mutable window_us : float;
  mutable count : int;
}

let create ?rng cfg =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 0x0ff5e7 |]
  in
  { cfg; rng; window_us = cfg.base_us; count = 0 }

let reset t = t.window_us <- t.cfg.base_us

let wait t =
  let slice_us = Random.State.float t.rng t.window_us in
  t.count <- t.count + 1;
  t.window_us <- Float.min t.cfg.cap_us (t.window_us *. t.cfg.multiplier);
  Unix.sleepf (slice_us /. 1e6)

let waits t = t.count
