(** An indexed binary min-heap of guest thread ids, keyed on [(key, tid)].

    The runner keeps every runnable-with-context thread here (keyed by its
    virtual clock) so picking the next thread is a peek instead of a linear
    scan, and reuses the same structure for the sleeper queue (keyed by
    wake-up cycle). The [tid] tie-break makes the order total — equal keys
    go to the HIGHER tid first — so the event-driven scheduler and the
    reference linear scan agree on every pick and figures stay
    byte-identical between the two.

    The heap holds ints only: each [(key, tid)] pair is packed into one int
    (the low 20 bits hold the tid), so every heap comparison is a single
    int compare, and a table indexed by [tid] gives each thread's heap
    position (membership O(1), re-keying / removal O(log n)). The packing
    bounds both halves: {!push} rejects a tid above {!max_tid} or a key
    outside [[0, max_key]] with [Invalid_argument]. Callers resolve a
    returned tid to its thread themselves (the runner through the VM's tid
    index), so no operation stores a pointer and none needs the write
    barrier. Each tid can appear at most once. All operations are
    allocation-free except internal array growth. *)

type t

val max_tid : int
(** Largest tid the heap accepts: [2^20 - 1]. *)

val max_key : int
(** Largest key the heap accepts: [max_int asr 20] (2^42 - 1 cycles
    on a 64-bit host). *)

val create : unit -> t
val size : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
(** Is [tid] present? *)

val push : t -> key:int -> int -> unit
(** [push t ~key tid] inserts [tid], or re-keys it if already present.
    @raise Invalid_argument if [tid] is outside [[0, max_tid]] or [key]
    outside [[0, max_key]]. *)

val remove : t -> int -> unit
(** Remove by [tid]; no-op if absent. *)

val min_key : t -> int
(** Key of the minimum element, [max_int] when empty (so comparisons
    against a candidate key need no emptiness branch). *)

val min_precedes : t -> key:int -> tid:int -> bool
(** Does the minimum element sort strictly before [(key, tid)]? The
    run-ahead test, asked after every step: [false] on an empty heap. *)

val pop_min : t -> int
(** Remove and return the [(key, tid)]-smallest tid.
    @raise Invalid_argument if the heap is empty. *)

val push_pop : t -> key:int -> int -> int
(** [push_pop t ~key tid] is [push t ~key tid] followed by [pop_min t] in
    one sift (the classic heap-replace): it returns [tid] itself, leaving
    the heap untouched, when [(key, tid)] is smaller than every element
    (always, on an empty heap); otherwise [tid] takes the root's place and
    the old root is returned. The runner carries its stepped thread from
    one slice to the next pick through this.
    @raise Invalid_argument on the bounds {!push} enforces. *)

val clear : t -> unit
