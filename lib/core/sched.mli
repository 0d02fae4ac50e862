(** An indexed binary min-heap of guest threads, keyed on [(key, tid)].

    The runner keeps every runnable-with-context thread here (keyed by its
    virtual clock) so picking the next thread is a peek instead of a linear
    scan, and reuses the same structure for the sleeper queue (keyed by
    wake-up cycle). The [tid] tie-break makes the order total, so the
    event-driven scheduler and the reference linear scan agree on every
    pick and figures stay byte-identical between the two.

    The heap orders ints only: [(key, tid)] pairs sift through two int
    arrays, and two tables indexed by [tid] give each thread's heap
    position (membership O(1), re-keying / removal O(log n)) and the
    thread itself. The thread table is written when a thread enters the
    heap and cleared when it leaves, so a removed thread is not retained.
    Each thread can appear at most once. All operations are
    allocation-free except internal array growth. *)

type t

val create : dummy:Rvm.Vmthread.t -> t
(** [dummy] fills unused thread-table slots (never returned); any thread
    works. *)

val size : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
(** Is the thread with this [tid] present? *)

val push : t -> key:int -> Rvm.Vmthread.t -> unit
(** Insert, or re-key if the thread is already present. *)

val remove : t -> int -> unit
(** Remove by [tid]; no-op if absent. *)

val min_key : t -> int
(** Key of the minimum element, [max_int] when empty (so comparisons
    against a candidate key need no emptiness branch). *)

val min_precedes : t -> key:int -> tid:int -> bool
(** Does the minimum element sort strictly before [(key, tid)]? The
    run-ahead test, asked after every step: [false] on an empty heap. *)

val pop_min : t -> Rvm.Vmthread.t
(** Remove and return the [(key, tid)]-smallest thread.
    @raise Invalid_argument if the heap is empty. *)

val push_pop : t -> key:int -> Rvm.Vmthread.t -> Rvm.Vmthread.t
(** [push_pop t ~key th] is [push t ~key th] followed by [pop_min t] in
    one sift (the classic heap-replace): it returns [th] itself, leaving
    the heap untouched, when [(key, th.tid)] is smaller than every element
    (always, on an empty heap); otherwise [th] takes the root's place and
    the old root is returned. The runner carries its stepped thread from
    one slice to the next pick through this. *)

val clear : t -> unit
