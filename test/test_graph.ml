(* lib/graph: the shared incremental dependency-graph core. Unit tests
   for the Pearce-Kelly structure's contract — the topological-order
   invariant after every insertion, witness validity at the rejected
   closing edge, duplicate handling, deletions — plus a property hunt:
   random sequences of offers and removals must agree with a Digraph
   mirror at every step. *)

module D = Graph.Digraph
module I = Graph.Incremental

(* {2 The order invariant}

   After any sequence of accepted insertions, [order_of a < order_of b]
   for every stored edge [a -> b] — the invariant all of Pearce-Kelly's
   O(1) fast paths and affected-region reorderings are accountable to. *)

let check_order g =
  List.iter
    (fun a ->
      let oa =
        match I.order_of g a with
        | Some o -> o
        | None -> Alcotest.failf "node %d has no priority" a
      in
      List.iter
        (fun b ->
          let ob =
            match I.order_of g b with
            | Some o -> o
            | None -> Alcotest.failf "node %d has no priority" b
          in
          if oa >= ob then
            Alcotest.failf "edge %d -> %d violates order (%d >= %d)" a b oa ob)
        (I.succs g a))
    (I.nodes g)

let test_order_forward_chain () =
  let g = I.create () in
  List.iter
    (fun (a, b) -> Alcotest.(check bool) "accepted" true (I.add_edge g a b = `Ok))
    [ (1, 2); (2, 3); (3, 4); (1, 4) ];
  check_order g

let test_order_backward_insertions () =
  (* Insert edges against the discovery order so every insertion lands
     in the slow path and forces a reordering. *)
  let g = I.create () in
  List.iter
    (fun (a, b) -> Alcotest.(check bool) "accepted" true (I.add_edge g a b = `Ok))
    [ (30, 40); (20, 30); (10, 20); (5, 10); (40, 50) ];
  check_order g;
  (* A cross edge into the middle of the chain reorders the affected
     region only; the invariant must survive. *)
  Alcotest.(check bool) "cross edge" true (I.add_edge g 5 35 = `Ok);
  Alcotest.(check bool) "cross edge 2" true (I.add_edge g 35 40 = `Ok);
  check_order g

let test_order_random_dag () =
  (* Random insertions over a node universe where edges always point
     from a lower to a higher id — guaranteed acyclic, so every offer
     must be accepted and the order invariant must hold throughout. *)
  let st = Random.State.make [| 0xdead; 17 |] in
  let g = I.create () in
  for _ = 1 to 400 do
    let a = Random.State.int st 60 in
    let b = a + 1 + Random.State.int st (61 - a) in
    (match I.add_edge g a b with
    | `Ok | `Exists -> ()
    | `Cycle _ -> Alcotest.fail "rejected an edge of a DAG");
    check_order g
  done

(* {2 Witness validity} *)

let test_self_loop () =
  let g = I.create () in
  (match I.add_edge g 3 3 with
  | `Cycle [ 3 ] -> ()
  | _ -> Alcotest.fail "self-loop must return `Cycle [x]");
  Alcotest.(check bool) "self-loop not stored" false (I.mem_edge g 3 3)

let test_two_cycle_witness () =
  let g = I.create () in
  Alcotest.(check bool) "forward" true (I.add_edge g 1 2 = `Ok);
  (match I.add_edge g 2 1 with
  | `Cycle [ 1; 2 ] -> ()
  | `Cycle c ->
    Alcotest.failf "wrong witness [%s]"
      (String.concat ";" (List.map string_of_int c))
  | _ -> Alcotest.fail "closing edge must be rejected");
  (* The rejected edge is NOT inserted: the graph stays acyclic and the
     same offer keeps failing. *)
  Alcotest.(check bool) "edge rejected" false (I.mem_edge g 2 1);
  Alcotest.(check bool) "still cyclic offer" true
    (match I.add_edge g 2 1 with `Cycle _ -> true | _ -> false)

(* A witness [n1; ...; nk] for rejected edge [x -> y] must be an actual
   stored path: y = n1, x = nk, and every consecutive hop an edge. *)
let check_witness g ~src ~dst = function
  | [] -> Alcotest.fail "empty witness"
  | n1 :: _ as w ->
    Alcotest.(check int) "witness starts at dst" dst n1;
    let rec hops = function
      | a :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "witness hop %d -> %d stored" a b)
          true (I.mem_edge g a b);
        hops rest
      | [ last ] -> Alcotest.(check int) "witness ends at src" src last
      | [] -> ()
    in
    hops w

let test_long_cycle_witness () =
  let g = I.create () in
  List.iter
    (fun (a, b) -> ignore (I.add_edge g a b))
    [ (1, 2); (2, 3); (3, 4); (4, 5) ];
  match I.add_edge g 5 1 with
  | `Cycle w -> check_witness g ~src:5 ~dst:1 w
  | _ -> Alcotest.fail "5 -> 1 closes the chain"

(* {2 Duplicates and deletions} *)

let test_duplicate_edge () =
  let g = I.create () in
  Alcotest.(check bool) "first" true (I.add_edge g 7 9 = `Ok);
  Alcotest.(check bool) "second is `Exists" true (I.add_edge g 7 9 = `Exists);
  Alcotest.(check int) "stored once" 1 (I.edge_count g)

let test_remove_edge_reopens () =
  let g = I.create () in
  ignore (I.add_edge g 1 2);
  ignore (I.add_edge g 2 3);
  Alcotest.(check bool) "closing rejected" true
    (match I.add_edge g 3 1 with `Cycle _ -> true | _ -> false);
  I.remove_edge g 1 2;
  Alcotest.(check bool) "after deletion the edge fits" true
    (I.add_edge g 3 1 = `Ok);
  check_order g

let test_remove_node_drops_incident () =
  let g = I.create () in
  ignore (I.add_edge g 1 2);
  ignore (I.add_edge g 2 3);
  ignore (I.add_edge g 4 2);
  I.remove_node g 2;
  Alcotest.(check bool) "no 1->2" false (I.mem_edge g 1 2);
  Alcotest.(check bool) "no 2->3" false (I.mem_edge g 2 3);
  Alcotest.(check bool) "no 4->2" false (I.mem_edge g 4 2);
  Alcotest.(check int) "edges gone" 0 (I.edge_count g);
  (* A finished transaction's id can come back (retry) without tripping
     over stale adjacency. *)
  Alcotest.(check bool) "reusable id" true (I.add_edge g 3 2 = `Ok);
  check_order g

let test_remove_out_edges () =
  let g = I.create () in
  ignore (I.add_edge g 1 2);
  ignore (I.add_edge g 1 3);
  ignore (I.add_edge g 4 1);
  I.remove_out_edges g 1;
  Alcotest.(check int) "only 4->1 left" 1 (I.edge_count g);
  Alcotest.(check bool) "in-edge kept" true (I.mem_edge g 4 1)

(* {2 Agreement with the offline graph}

   Feed random operations — edge offers (cycles likely) interleaved with
   edge, out-edge and node removals — to the incremental structure and
   mirror each one into a plain Digraph, which holds the accepted edges.
   After every operation the offer's outcome must match the mirror (a
   present edge is [`Exists], an edge whose target already reaches its
   source is a [`Cycle] with a stored witness path, anything else is
   [`Ok]), and both graphs must agree on every node's sorted successors
   and predecessors, the node and edge counts, and the order invariant.
   Half the offers point into a hub node, so its predecessor set is
   promoted past the flat size and shrinks back as edges go. *)

let reaches off ~src ~dst =
  let seen = Hashtbl.create 16 in
  let rec go n =
    n = dst
    || (not (Hashtbl.mem seen n))
       && begin
         Hashtbl.replace seen n ();
         List.exists go (D.succs off n)
       end
  in
  go src

let check_mirror g off ~what =
  let ints = Alcotest.(list int) in
  Alcotest.(check ints) (what ^ ": nodes") (D.nodes off) (I.nodes g);
  Alcotest.(check int) (what ^ ": node_count") (D.node_count off) (I.node_count g);
  Alcotest.(check int) (what ^ ": edge_count") (D.edge_count off) (I.edge_count g);
  List.iter
    (fun n ->
      Alcotest.(check ints) (what ^ ": succs") (D.succs off n) (I.succs g n);
      Alcotest.(check ints) (what ^ ": preds") (D.preds off n) (I.preds g n);
      Alcotest.(check int)
        (what ^ ": in_degree")
        (List.length (D.preds off n))
        (I.in_degree g n))
    (D.nodes off);
  check_order g

let test_agrees_with_offline () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| 0xf00d; seed |] in
      let g = I.create () in
      let off = D.create () in
      let node () = Random.State.int st 60 in
      (* Half the pairs point into the hub 0. *)
      let pair () =
        let a = node () in
        (a, if Random.State.bool st then 0 else node ())
      in
      for step = 1 to 400 do
        let what = Printf.sprintf "seed %d step %d" seed step in
        (match Random.State.int st 20 with
        | 0 ->
          let a = node () in
          I.remove_node g a;
          D.remove_node off a
        | 1 ->
          let a = node () in
          I.remove_out_edges g a;
          D.remove_out_edges off a
        | 2 | 3 | 4 | 5 ->
          let a, b = pair () in
          I.remove_edge g a b;
          D.remove_edge off a b
        | _ -> (
          let a, b = pair () in
          let expect =
            if D.mem_edge off a b then `Exists
            else if reaches off ~src:b ~dst:a then `Cycle
            else `Ok
          in
          D.add_node off a;
          D.add_node off b;
          match (I.add_edge g a b, expect) with
          | `Ok, `Ok -> D.add_edge off a b
          | `Exists, `Exists -> ()
          | `Cycle w, `Cycle -> check_witness g ~src:a ~dst:b w
          | _ -> Alcotest.failf "%s: offer %d -> %d disagrees with the mirror" what a b));
        check_mirror g off ~what
      done)
    (List.init 20 (fun i -> i + 1))

(* A node far past the flat size: 3,000 in-edges, then half its
   predecessors leave — alternately by edge and by node removal — and
   neither side of any removed edge may keep a trace of it; then all
   but a few leave, so the set shrinks back to flat. *)
let test_high_degree_removal () =
  let g = I.create () and off = D.create () in
  let n = 3000 in
  for p = 1 to n do
    Alcotest.(check bool) "accepted" true (I.add_edge g p 0 = `Ok);
    D.add_edge off p 0
  done;
  Alcotest.(check int) "in_degree" n (I.in_degree g 0);
  for p = 1 to n do
    if p mod 2 = 0 then
      if p mod 4 = 0 then begin
        I.remove_edge g p 0;
        D.remove_edge off p 0
      end
      else begin
        I.remove_node g p;
        D.remove_node off p
      end
  done;
  check_mirror g off ~what:"after removals";
  Alcotest.(check int) "half the preds left" (n / 2) (I.in_degree g 0);
  for p = 1 to n do
    let kept = p mod 2 = 1 in
    Alcotest.(check bool) (Printf.sprintf "edge %d -> 0" p) kept (I.mem_edge g p 0);
    Alcotest.(check (list int))
      (Printf.sprintf "succs %d" p)
      (if kept then [ 0 ] else [])
      (I.succs g p)
  done;
  (* Removed preds may come back, and the hub can still reach out. *)
  Alcotest.(check bool) "re-added" true (I.add_edge g 2 0 = `Ok);
  D.add_edge off 2 0;
  Alcotest.(check bool) "closing edge rejected" true
    (match I.add_edge g 0 1 with `Cycle [ 1; 0 ] -> true | _ -> false);
  (* Shrinking back to a flat set keeps the survivors. *)
  for p = 7 to n do
    I.remove_out_edges g p;
    D.remove_out_edges off p
  done;
  check_mirror g off ~what:"after shrinking";
  Alcotest.(check (list int)) "survivors" [ 1; 2; 3; 5 ] (I.preds g 0)

(* {2 The plain digraph} *)

let test_digraph_basics () =
  let g = D.create () in
  D.add_edge g 1 2;
  D.add_edge g 1 2;
  D.add_edge g 2 3;
  Alcotest.(check int) "dedup" 2 (D.edge_count g);
  Alcotest.(check (list int)) "succs" [ 2 ] (List.sort compare (D.succs g 1));
  Alcotest.(check (list int)) "preds" [ 1 ] (List.sort compare (D.preds g 2));
  D.remove_node g 2;
  Alcotest.(check int) "incident edges dropped" 0 (D.edge_count g);
  Alcotest.(check bool) "node gone" false (D.mem_node g 2);
  Alcotest.(check (list int))
    "others kept" [ 1; 3 ]
    (List.sort compare (D.nodes g))

let suite =
  [
    Alcotest.test_case "order: forward chain" `Quick test_order_forward_chain;
    Alcotest.test_case "order: backward insertions" `Quick
      test_order_backward_insertions;
    Alcotest.test_case "order: random DAG" `Quick test_order_random_dag;
    Alcotest.test_case "witness: self-loop" `Quick test_self_loop;
    Alcotest.test_case "witness: two-cycle" `Quick test_two_cycle_witness;
    Alcotest.test_case "witness: long cycle" `Quick test_long_cycle_witness;
    Alcotest.test_case "duplicate edge" `Quick test_duplicate_edge;
    Alcotest.test_case "remove_edge reopens" `Quick test_remove_edge_reopens;
    Alcotest.test_case "remove_node drops incident" `Quick
      test_remove_node_drops_incident;
    Alcotest.test_case "remove_out_edges" `Quick test_remove_out_edges;
    Alcotest.test_case "agrees with History.Digraph" `Quick
      test_agrees_with_offline;
    Alcotest.test_case "high-degree removal" `Quick test_high_degree_removal;
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
  ]
