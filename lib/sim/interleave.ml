(* Exhaustive interleaving enumeration.

   A schedule for the executor is a merge of the programs' attempt
   sequences (one attempt per operation, plus one for the auto-commit).
   Enumerating every merge explores every reachable history of the
   deterministic engine: attempts are its only source of nondeterminism. *)

let count sizes =
  let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
  fact (List.fold_left ( + ) 0 sizes)
  / List.fold_left (fun acc s -> acc * fact s) 1 sizes

(* Attempt-sequence sizes for a program list: one per op plus the
   auto-commit the executor appends to unterminated programs. *)
let sizes_of_programs programs =
  List.map
    (fun p ->
      Core.Program.length p + if Core.Program.terminated p then 0 else 1)
    programs

(* Visit merges in lexicographic order without materializing them; [f]
   may stop the search early by returning [true] ("found"). Returns
   whether any merge satisfied [f], and how many were visited. *)
let exists_merge sizes f =
  let visited = ref 0 in
  let rec go remaining prefix =
    if List.for_all (fun r -> r = 0) remaining then begin
      incr visited;
      f (List.rev prefix)
    end
    else
      let rec try_streams i = function
        | [] -> false
        | r :: rest ->
          (r > 0
          &&
          let remaining' =
            List.mapi (fun j r' -> if j = i then r' - 1 else r') remaining
          in
          go remaining' ((i + 1) :: prefix))
          || try_streams (i + 1) rest
      in
      try_streams 0 remaining
  in
  let found = go sizes [] in
  (found, !visited)

(* All merges, as 1-based stream indices, in the order [exists_merge]
   visits them. The count is the multinomial coefficient. *)
let merges sizes =
  let acc = ref [] in
  ignore (exists_merge sizes (fun m -> acc := m :: !acc; false) : bool * int);
  List.rev !acc

(* Run [f] on every merge, collecting how many satisfied it. *)
let count_merges sizes f =
  let hits = ref 0 in
  let _, total =
    exists_merge sizes (fun m ->
        if f m then incr hits;
        false)
  in
  (!hits, total)
