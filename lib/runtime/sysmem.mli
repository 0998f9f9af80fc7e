(** Process memory readings — the measurable side of the out-of-core
    pipeline's flat-memory claim. RSS figures come from
    [/proc/self/status] and read as 0 where procfs is unavailable. *)

val vm_hwm_kb : unit -> int
(** Peak resident set size (VmHWM), in kB. *)

val vm_rss_kb : unit -> int
(** Current resident set size (VmRSS), in kB. *)

val heap_words : unit -> int
(** Current OCaml heap size in words ({!Gc.quick_stat}). *)

type reading = { r_vm_hwm_kb : int; r_vm_rss_kb : int; r_heap_words : int }

val read : unit -> reading
val to_json : reading -> string
(** One JSON object: [{"vm_hwm_kb":..,"vm_rss_kb":..,"heap_words":..}]. *)

val pp : reading Fmt.t
