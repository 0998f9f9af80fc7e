(* Umbrella module of the [runtime] library: the multicore
   transaction-processing runtime. A Domain-based worker pool ({!Pool})
   drives the paper's engines under real concurrency; the run's recorded
   history is handed to the paper's detectors and serializability tests
   as a live correctness oracle ({!Oracle}); {!Metrics} measures what the
   hardware actually did. {!Executor} drives the same step path on one
   thread under a scripted interleaving: the deterministic [Sim]
   enumeration proves the theory on small scenarios exhaustively through
   it, and the pool samples it at scale on a live engine. *)

module Stripes = Stripes
module Backoff = Backoff
module Metrics = Metrics
module Sysmem = Sysmem
module Recorder = Recorder
module Certifier = Certifier
module Oracle = Oracle
module Pool = Pool
module Executor = Executor
