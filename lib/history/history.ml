(* Umbrella module of the [history] library: the formal model of
   transaction histories from §2 of "A Critique of ANSI SQL Isolation
   Levels" — actions, the shorthand notation, dependency graphs,
   serializability, and multiversion analysis. *)

module Action = Action
module Parser = Parser
module Index = Index
module Conflict = Conflict
module Mv = Mv
module View = View
module Recoverability = Recoverability
include Hist
