(** Positional indexes over a history, built in one pass: each action's
    position is filed, ascending, under every slot it belongs to. The
    phenomenon detectors and the serializability graphs walk outward
    from one action through the ranges their rules allow instead of
    rescanning the history, so they cost the history plus what they
    find. *)

type slot =
  | Reads  (** item reads *)
  | Writes
  | Pred_reads
  | Reads_on of Action.key
  | Writes_on of Action.key
  | Pred_reads_on of Action.key  (** predicate reads that matched the item *)
  | Pred_reads_named of string
  | Writes_declaring of string  (** writes declaring the predicate *)
  | Actions_of of Action.txn
  | Writes_of of Action.txn
  | Reads_by of Action.txn * Action.key
  | Writes_by of Action.txn * Action.key
  | Pred_reads_by of Action.txn * string
  | Commits_of of Action.txn
  | Aborts_of of Action.txn

type t = {
  arr : Action.t array;
  slots : (slot, int array) Hashtbl.t;
  versioned : bool;  (** some action carries a version ({!Mv.is_mv}) *)
}

let create h =
  let arr = Array.of_list h in
  let acc = Hashtbl.create 256 in
  (* positions arrive ascending, so a repeat (a predicate read matching
     one item twice) is always at the head *)
  let push slot i =
    match Hashtbl.find_opt acc slot with
    | Some l -> ( match !l with j :: _ when j = i -> () | _ -> l := i :: !l)
    | None -> Hashtbl.replace acc slot (ref [ i ])
  in
  let versioned = ref false in
  Array.iteri
    (fun i a ->
      let slots =
        match a with
        | Action.Read r ->
          if r.rver <> None then versioned := true;
          [ Reads; Reads_on r.rk; Reads_by (r.rt, r.rk) ]
        | Action.Write w ->
          if w.wver <> None then versioned := true;
          [ Writes; Writes_on w.wk; Writes_of w.wt; Writes_by (w.wt, w.wk) ]
          @ List.map (fun p -> Writes_declaring p) w.wpreds
        | Action.Pred_read p ->
          [ Pred_reads; Pred_reads_named p.pname; Pred_reads_by (p.pt, p.pname) ]
          @ List.map (fun k -> Pred_reads_on k) p.pkeys
        | Action.Commit t -> [ Commits_of t ]
        | Action.Abort t -> [ Aborts_of t ]
      in
      List.iter (fun s -> push s i) (Actions_of (Action.txn a) :: slots))
    arr;
  let slots = Hashtbl.create (Hashtbl.length acc) in
  Hashtbl.iter
    (fun s l -> Hashtbl.replace slots s (Array.of_list (List.rev !l)))
    acc;
  { arr; slots; versioned = !versioned }

(** A slot's positions, ascending; empty when none is filed. *)
let at x slot = Option.value ~default:[||] (Hashtbl.find_opt x.slots slot)

(** The last position, or -1. *)
let last a = if a = [||] then -1 else a.(Array.length a - 1)

let commits x t = at x (Commits_of t) <> [||]

(** Last termination position, or [max_int] while active. *)
let term x t =
  match max (last (at x (Commits_of t))) (last (at x (Aborts_of t))) with
  | -1 -> max_int
  | p -> p

(* The index in ascending [a] of its first position above [p]. *)
let first_above a p =
  let l = ref 0 and r = ref (Array.length a) in
  while !l < !r do
    let mid = (!l + !r) / 2 in
    if a.(mid) <= p then l := mid + 1 else r := mid
  done;
  !l

(** [between a lo hi f] calls [f] on each [p] of [a] with [lo < p < hi],
    ascending. *)
let between a lo hi f =
  let i = ref (first_above a lo) in
  while !i < Array.length a && a.(!i) < hi do
    f a.(!i);
    incr i
  done

(** The distinct positions in [(lo, hi)] of any of the arrays, ascending. *)
let union_between arrays lo hi =
  let acc = ref [] in
  List.iter (fun a -> between a lo hi (fun p -> acc := p :: !acc)) arrays;
  List.sort_uniq compare !acc

(** The first position above [p], or [max_int]. *)
let next a p =
  let i = first_above a p in
  if i < Array.length a then a.(i) else max_int
