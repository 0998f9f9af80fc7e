(* Process memory readings, so the out-of-core pipeline's flat-memory
   claim is measured rather than asserted: peak RSS (VmHWM) and current
   RSS from /proc/self/status, plus the OCaml heap from Gc.quick_stat.
   On systems without procfs the RSS readings are 0 and consumers treat
   them as unavailable. *)

let proc_status_kb field =
  let path = "/proc/self/status" in
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | line ->
        if String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
        then
          (* "VmHWM:     12345 kB" *)
          String.sub line (String.length prefix)
            (String.length line - String.length prefix)
          |> String.trim
          |> String.split_on_char ' '
          |> (function kb :: _ -> int_of_string_opt kb | [] -> None)
          |> Option.value ~default:0
        else scan ()
      | exception End_of_file -> 0
    in
    let v = scan () in
    close_in ic;
    v
  end

let vm_hwm_kb () = proc_status_kb "VmHWM"
let vm_rss_kb () = proc_status_kb "VmRSS"

let heap_words () =
  let s = Gc.quick_stat () in
  s.Gc.heap_words

type reading = { r_vm_hwm_kb : int; r_vm_rss_kb : int; r_heap_words : int }

let read () =
  {
    r_vm_hwm_kb = vm_hwm_kb ();
    r_vm_rss_kb = vm_rss_kb ();
    r_heap_words = heap_words ();
  }

(* A JSON object fragment, the run report's "memory" section. *)
let to_json r =
  Printf.sprintf {|{"vm_hwm_kb":%d,"vm_rss_kb":%d,"heap_words":%d}|}
    r.r_vm_hwm_kb r.r_vm_rss_kb r.r_heap_words

let pp ppf r =
  Fmt.pf ppf "peak rss %d kB, rss %d kB, heap %d words" r.r_vm_hwm_kb
    r.r_vm_rss_kb r.r_heap_words
