(** Abort-site attribution (the Section 5.6 abort-cause investigation as a
    first-class report): aborts charged to the bytecode site the victim was
    executing and, for conflicts, to the cache line that caused them. *)

type site = { s_code : string; s_pc : int; s_op : string }

type t

val create : unit -> t

val set_line_resolver : t -> (int -> string option) -> unit
(** Installed by the VM layer: names known shared regions ("global
    free-list head", "GIL word", "inline caches", ...) by cache line. *)

val detach : t -> t
(** A copy of the counts as of now whose line resolver is a plain table
    holding the region names of the lines recorded so far. It shares
    nothing with the original, and keeps nothing alive that the installed
    resolver closes over (a finished run's whole VM). *)

val record :
  t -> code:string -> pc:int -> op:string -> reason:string -> line:int -> unit
(** Charge one abort; [line] is the conflicting cache line or -1. *)

val record_fallback : t -> target:string -> cause:string -> unit
(** Charge one fallback decision: a window that gave up on its primary
    execution mode and went to [target] ("gil" or "stm") because of
    [cause] ("persistent", "capacity", "retry-budget", "explicit",
    "gil-contention", "stm-retry-budget"). *)

val fallbacks : t -> (string * string * int) list
(** [(target, cause, count)], sorted — the [--abort-report] breakdown. *)

val total : t -> int

type cell = { mutable n : int; reasons : (string, int) Hashtbl.t }

val top_sites : t -> int -> (site * cell) list
(** Count-descending (deterministic tie-break on the site). *)

val top_lines : t -> int -> (int * int) list

val report : ?n:int -> Format.formatter -> t -> unit
(** The human-readable report: top aborting sites with reason splits, top
    conflicting lines with region names. *)

val to_json : ?n:int -> t -> Json.t
