(* Unit and property tests for Graph.Digraph's offline queries: cycle
   detection with witnesses and topological sorting. *)

module G = Graph.Digraph

let graph edges =
  let g = G.create () in
  List.iter (fun (a, b) -> G.add_edge g a b) edges;
  g

let test_empty () =
  let g = G.create () in
  Alcotest.(check (list int)) "no nodes" [] (G.nodes g);
  Alcotest.(check bool) "acyclic" true (G.is_acyclic g);
  Alcotest.(check (option (list int))) "topo" (Some []) (G.topological_sort g)

let test_single_node () =
  let g = G.create () in
  G.add_node g 7;
  Alcotest.(check (list int)) "one node" [ 7 ] (G.nodes g);
  Alcotest.(check bool) "acyclic" true (G.is_acyclic g)

let test_self_loop () =
  let g = graph [ (1, 1) ] in
  Alcotest.(check bool) "cyclic" false (G.is_acyclic g);
  Alcotest.(check (option (list int))) "cycle is [1]" (Some [ 1 ]) (G.find_cycle g)

let test_chain_acyclic () =
  let g = graph [ (1, 2); (2, 3); (3, 4) ] in
  Alcotest.(check bool) "acyclic" true (G.is_acyclic g);
  Alcotest.(check (option (list int)))
    "topo order" (Some [ 1; 2; 3; 4 ]) (G.topological_sort g)

let test_two_cycle () =
  let g = graph [ (1, 2); (2, 1) ] in
  match G.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
    Alcotest.(check (list int)) "cycle nodes" [ 1; 2 ] (List.sort compare cycle)

let test_cycle_witness_is_real () =
  let g = graph [ (1, 2); (2, 3); (3, 1); (3, 4); (4, 5) ] in
  match G.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
    let n = List.length cycle in
    Alcotest.(check bool) "non-empty" true (n > 0);
    List.iteri
      (fun i a ->
        let b = List.nth cycle ((i + 1) mod n) in
        Alcotest.(check bool)
          (Printf.sprintf "edge %d->%d exists" a b)
          true (G.mem_edge g a b))
      cycle

let test_diamond_topo () =
  let edges = [ (1, 2); (1, 3); (2, 4); (3, 4) ] in
  let g = graph edges in
  match G.topological_sort g with
  | None -> Alcotest.fail "expected acyclic"
  | Some order ->
    let pos x =
      let rec find i = function
        | [] -> Alcotest.fail "missing node"
        | y :: rest -> if x = y then i else find (i + 1) rest
      in
      find 0 order
    in
    List.iter
      (fun (a, b) ->
        Alcotest.(check bool)
          (Printf.sprintf "%d before %d" a b)
          true
          (pos a < pos b))
      edges

(* Properties: topological_sort succeeds exactly on acyclic graphs, every
   cycle witness is made of real edges, and every order respects every
   edge. *)
let gen_edges =
  QCheck2.Gen.(list_size (0 -- 30) (pair (1 -- 8) (1 -- 8)))

let prop_topo_iff_acyclic =
  Support.qtest "topological_sort succeeds iff acyclic" ~count:500 gen_edges
    (fun edges ->
      let g = graph edges in
      (G.topological_sort g <> None) = G.is_acyclic g)

let prop_cycle_witness_valid =
  Support.qtest "find_cycle returns a real cycle" ~count:500 gen_edges
    (fun edges ->
      let g = graph edges in
      match G.find_cycle g with
      | None -> true
      | Some cycle ->
        let n = List.length cycle in
        n > 0
        && List.for_all
             (fun i ->
               G.mem_edge g (List.nth cycle i) (List.nth cycle ((i + 1) mod n)))
             (List.init n Fun.id))

let prop_topo_respects_edges =
  Support.qtest "topological order respects every edge" ~count:500 gen_edges
    (fun edges ->
      let g = graph edges in
      match G.topological_sort g with
      | None -> true
      | Some order ->
        let pos = Hashtbl.create 16 in
        List.iteri (fun i x -> Hashtbl.replace pos x i) order;
        List.for_all
          (fun (a, b) -> Hashtbl.find pos a < Hashtbl.find pos b)
          edges)

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty;
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "self loop" `Quick test_self_loop;
    Alcotest.test_case "chain is acyclic" `Quick test_chain_acyclic;
    Alcotest.test_case "two-node cycle" `Quick test_two_cycle;
    Alcotest.test_case "cycle witness has real edges" `Quick test_cycle_witness_is_real;
    Alcotest.test_case "diamond topological order" `Quick test_diamond_topo;
    prop_topo_iff_acyclic;
    prop_cycle_witness_valid;
    prop_topo_respects_edges;
  ]
