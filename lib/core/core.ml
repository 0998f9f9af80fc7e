(* Umbrella module of the [core] library: transaction programs, the
   locking and multiversion engines, the unified engine, and the
   session-oriented Db API. *)

module Program = Program
module Lock_engine = Lock_engine
module Mv_engine = Mv_engine
module To_engine = To_engine
module Engine = Engine
module Db = Db
