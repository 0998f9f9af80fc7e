(* Pearce–Kelly online topological order.

   Invariant: for every edge a->b, [ord a < ord b]. Priorities are
   arbitrary distinct integers (not a dense 0..n-1 array), so node
   insertion and deletion never renumber anything.

   Inserting x->y when [ord x < ord y] already holds is O(1). Otherwise
   the affected region is ord in [ord y, ord x]: a forward search from y
   (which, by the invariant, can reach x only through that region) either
   reaches x — the cycle case, reported with the search path as witness
   and the edge rejected — or collects the descendants F of y in the
   region; a backward search from x collects its ancestors B. B and F
   are disjoint (a shared node would itself witness a y ~> x path), and
   reassigning the pooled priorities to B then F, each in old relative
   order, restores the invariant with no node outside the region moved.

   Representation: one record per node, holding its priority, a search
   mark and both adjacency sets, so an edge update costs one table
   lookup per endpoint. *)

(* An adjacency set of node ids that allocates nothing per update on
   its common path. Up to [small] members it is a flat array scanned
   linearly; above that it is promoted in place to an open-addressing
   hash set (linear probing, backward-shift deletion, [empty] marking a
   free slot) so membership and removal stay O(1) expected on
   high-degree nodes. The array length alone tells the two apart: a
   flat array never exceeds [small] slots, a hashed one always does and
   is a power of two, at most three quarters full. A hashed set that
   shrinks below an eighth full is halved, and flattened again at
   [small / 2] members. Member order is unspecified; callers that
   expose it sort. *)
module Adj = struct
  let small = 16
  let empty = min_int

  type t = { mutable len : int; mutable slots : int array }

  let create () = { len = 0; slots = [||] }
  let hashed s = Array.length s.slots > small

  (* [x]'s first probe slot, its bits mixed so that ids in arithmetic
     progression (one worker's tids, virtual ids) spread over the table. *)
  let home mask x =
    let h = x * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land mask

  (* The slot holding [x], else the free slot where its probe ends. *)
  let probe slots x =
    let mask = Array.length slots - 1 in
    let rec go i =
      let v = Array.unsafe_get slots i in
      if v = x || v = empty then i else go ((i + 1) land mask)
    in
    go (home mask x)

  let rec index_flat s x i =
    if i >= s.len then -1
    else if Array.unsafe_get s.slots i = x then i
    else index_flat s x (i + 1)

  let mem s x =
    if hashed s then s.slots.(probe s.slots x) = x else index_flat s x 0 >= 0

  let fold f s acc =
    if hashed s then
      Array.fold_left (fun acc x -> if x = empty then acc else f x acc) acc s.slots
    else begin
      let acc = ref acc in
      for i = 0 to s.len - 1 do
        acc := f s.slots.(i) !acc
      done;
      !acc
    end

  (* Stops at the first member satisfying [p]. *)
  let exists p s =
    let slots = s.slots in
    let n = if hashed s then Array.length slots else s.len in
    let rec go i =
      i < n && ((let x = slots.(i) in x <> empty && p x) || go (i + 1))
    in
    go 0

  let iter f s = ignore (exists (fun x -> f x; false) s)
  let sorted s = List.sort compare (fold List.cons s [])

  (* [add] requires [x] not to be a member. *)
  let rec add s x =
    let cap = Array.length s.slots in
    if cap > small then
      if 4 * (s.len + 1) > 3 * cap then begin
        rebuild s (2 * cap);
        add s x
      end
      else begin
        s.slots.(probe s.slots x) <- x;
        s.len <- s.len + 1
      end
    else if s.len < cap then begin
      s.slots.(s.len) <- x;
      s.len <- s.len + 1
    end
    else begin
      rebuild s (if cap = 0 then 4 else if cap < small then 2 * cap else 4 * small);
      add s x
    end

  and rebuild s cap =
    let members = fold List.cons s [] in
    s.slots <- Array.make cap empty;
    s.len <- 0;
    List.iter (add s) members

  (* Backward-shift deletion: walk the probe run after the hole and pull
     back every entry whose home slot does not lie cyclically in
     (hole, j], so no later lookup stops early at the hole. *)
  let remove_hashed s i =
    let slots = s.slots in
    let mask = Array.length slots - 1 in
    let rec shift hole j =
      let v = slots.(j) in
      if v = empty then slots.(hole) <- empty
      else begin
        let h = home mask v in
        let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
        if stays then shift hole ((j + 1) land mask)
        else begin
          slots.(hole) <- v;
          shift j ((j + 1) land mask)
        end
      end
    in
    shift i ((i + 1) land mask);
    s.len <- s.len - 1;
    let cap = Array.length slots in
    if s.len <= small / 2 then rebuild s small
    else if 8 * s.len < cap then rebuild s (cap / 2)

  (* A flat array is kept for reuse; a hashed one is let go. *)
  let clear s =
    s.len <- 0;
    if hashed s then s.slots <- [||]

  (* True when [x] was a member. *)
  let remove s x =
    if hashed s then begin
      let i = probe s.slots x in
      s.slots.(i) = x && (remove_hashed s i; true)
    end
    else
      let i = index_flat s x 0 in
      i >= 0
      && begin
        s.len <- s.len - 1;
        s.slots.(i) <- s.slots.(s.len);
        true
      end
end

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

type node = {
  mutable ord : int;
  mutable mark : int;   (* = [t.epoch] while the current search has visited it *)
  succ : Adj.t;
  pred : Adj.t;
}

type t = {
  nodes : node Tbl.t;
  m : Mutex.t;
  mutable next : int;
  mutable epoch : int;
  mutable edges : int;
}

let create () =
  { nodes = Tbl.create 16; m = Mutex.create (); next = 0; epoch = 0; edges = 0 }

(* Lock without a closure: the hot operations run through here. *)
let locked t f a b =
  Mutex.lock t.m;
  match f t a b with
  | r ->
    Mutex.unlock t.m;
    r
  | exception e ->
    Mutex.unlock t.m;
    raise e

let node t n = Tbl.find t.nodes n

let ensure_node t n =
  match Tbl.find_opt t.nodes n with
  | Some nd -> nd
  | None ->
    if n = Adj.empty then invalid_arg "Graph.Incremental: node id min_int";
    let nd = { ord = t.next; mark = 0; succ = Adj.create (); pred = Adj.create () } in
    t.next <- t.next + 1;
    Tbl.replace t.nodes n nd;
    nd

let new_search t =
  t.epoch <- t.epoch + 1;
  t.epoch

(* Forward search from [y] through the affected region (ord < ord x; the
   invariant bounds any y ~> x path inside it). Whether x is reachable,
   and the visited set F when it is not, do not depend on the order
   neighbours are tried, so this pass takes them as stored. *)
let forward t ~x ~yn ~ox =
  let ep = new_search t in
  let f = ref [] in
  let rec dfs nd =
    nd.mark <- ep;
    f := nd :: !f;
    Adj.exists
      (fun w ->
        w = x
        ||
        let wn = node t w in
        wn.mark <> ep && wn.ord < ox && dfs wn)
      nd.succ
  in
  if dfs yn then None else Some !f

(* The witness is observable, so it comes from a second search trying
   successors in ascending id order: the first path [y; ...; x] that
   depth-first order finds. *)
let witness t ~x ~y ~ox =
  let ep = new_search t in
  let rec dfs n =
    List.find_map
      (fun w ->
        if w = x then Some [ n; x ]
        else
          let wn = node t w in
          if wn.mark <> ep && wn.ord < ox then begin
            wn.mark <- ep;
            Option.map (List.cons n) (dfs w)
          end
          else None)
      (Adj.sorted (node t n).succ)
  in
  (node t y).mark <- ep;
  Option.get (dfs y)

(* Backward search from [x]: its ancestors inside the region (ord > ord y). *)
let backward t ~xn ~oy =
  let ep = new_search t in
  let b = ref [] in
  let rec dfs nd =
    nd.mark <- ep;
    b := nd :: !b;
    Adj.iter
      (fun w ->
        let wn = node t w in
        if wn.mark <> ep && wn.ord > oy then dfs wn)
      nd.pred
  in
  dfs xn;
  !b

let reorder ~b ~f =
  let by_ord ns = List.sort (fun a b -> compare a.ord b.ord) ns in
  let seq = by_ord b @ by_ord f in
  let pool = List.sort compare (List.map (fun nd -> nd.ord) seq) in
  List.iter2 (fun nd o -> nd.ord <- o) seq pool

let link t xn x yn y =
  Adj.add xn.succ y;
  Adj.add yn.pred x;
  t.edges <- t.edges + 1

let add_edge_u t x y =
  let xn = ensure_node t x in
  let yn = ensure_node t y in
  if x = y then `Cycle [ x ]
  else if Adj.mem xn.succ y then `Exists
  else begin
    let ox = xn.ord and oy = yn.ord in
    if ox < oy then begin
      link t xn x yn y;
      `Ok
    end
    else
      match forward t ~x ~yn ~ox with
      | None -> `Cycle (witness t ~x ~y ~ox)
      | Some f ->
        reorder ~b:(backward t ~xn ~oy) ~f;
        link t xn x yn y;
        `Ok
  end

let remove_edge_u t a b =
  match (Tbl.find_opt t.nodes a, Tbl.find_opt t.nodes b) with
  | Some an, Some bn when Adj.remove an.succ b ->
    ignore (Adj.remove bn.pred a);
    t.edges <- t.edges - 1
  | _ -> ()

let remove_out_edges_u t n () =
  match Tbl.find_opt t.nodes n with
  | None -> ()
  | Some nd ->
    Adj.iter (fun s -> ignore (Adj.remove (node t s).pred n)) nd.succ;
    t.edges <- t.edges - nd.succ.len;
    Adj.clear nd.succ

let remove_node_u t n () =
  match Tbl.find_opt t.nodes n with
  | None -> ()
  | Some nd ->
    remove_out_edges_u t n ();
    Adj.iter (fun p -> ignore (Adj.remove (node t p).succ n)) nd.pred;
    t.edges <- t.edges - nd.pred.len;
    Tbl.remove t.nodes n

let adj_u side t n () =
  match Tbl.find_opt t.nodes n with
  | Some nd -> Adj.sorted (side nd)
  | None -> []

let add_node t n = locked t (fun t n () -> ignore (ensure_node t n)) n ()
let add_edge t x y = locked t add_edge_u x y
let remove_edge t a b = locked t remove_edge_u a b
let remove_out_edges t n = locked t remove_out_edges_u n ()
let remove_node t n = locked t remove_node_u n ()

let mem_edge t a b =
  locked t
    (fun t a b ->
      match Tbl.find_opt t.nodes a with
      | Some an -> Adj.mem an.succ b
      | None -> false)
    a b

let succs t n = locked t (adj_u (fun nd -> nd.succ)) n ()
let preds t n = locked t (adj_u (fun nd -> nd.pred)) n ()

let in_degree t n =
  locked t
    (fun t n () ->
      match Tbl.find_opt t.nodes n with Some nd -> nd.pred.len | None -> 0)
    n ()

let nodes t =
  locked t (fun t () () -> List.sort compare (Tbl.fold (fun n _ acc -> n :: acc) t.nodes [])) () ()

let node_count t = locked t (fun t () () -> Tbl.length t.nodes) () ()
let edge_count t = locked t (fun t () () -> t.edges) () ()

let order_of t n =
  locked t
    (fun t n () -> Option.map (fun nd -> nd.ord) (Tbl.find_opt t.nodes n))
    n ()
