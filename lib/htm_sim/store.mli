(** The simulated memory: a flat, growable array of cells addressed by
    integers. One cell models 8 bytes; a cache line of [line_cells] cells.
    [reserve] hands out address ranges like sbrk; callers build their own
    allocators on top. *)

type 'a t

val create : ?recycled:'a array * int -> dummy:'a -> line_cells:int -> int -> 'a t
(** [create ~dummy ~line_cells initial] makes a store whose unreserved cells
    read as [dummy]. [?recycled] is a backing array from {!retire} — it is
    reused (its dirty prefix re-filled with [dummy]) instead of allocating a
    fresh array, provided it is at least [initial] cells long. *)

val capacity : 'a t -> int
(** Currently allocated backing capacity, in cells. *)

val brk : 'a t -> int
(** First unreserved address. *)

val dummy : 'a t -> 'a
(** The filler value unreserved cells read as. *)

val set_on_grow : 'a t -> (int -> unit) -> unit
(** Install the capacity-growth hook and invoke it immediately with the
    current capacity (in cells). Single consumer: the HTM engine uses it to
    grow its flat per-line metadata tables in lockstep with the store, so
    its hot path never bounds-checks a line id. Installing a new hook
    replaces the previous one. *)

val line_of : 'a t -> int -> int
(** Cache-line id of an address. *)

val line_offset : 'a t -> int -> int
(** Cell offset of an address within its cache line. *)

val reserve : 'a t -> int -> int
(** Reserve [n] cells; returns the base address. *)

val reserve_aligned : 'a t -> int -> int
(** Like {!reserve} but the base starts a cache line (for padded,
    false-sharing-free structures). *)

val get : 'a t -> int -> 'a
(** Bounds-checked read. @raise Invalid_argument outside reserved space. *)

val set : 'a t -> int -> 'a -> unit
(** Bounds-checked write. @raise Invalid_argument outside reserved space. *)

val get_unsafe : 'a t -> int -> 'a
(** Unchecked read for the interpreter's hot path. *)

val set_unsafe : 'a t -> int -> 'a -> unit
(** Unchecked write for the interpreter's hot path. *)

val set_changed : 'a t -> int -> 'a -> unit
(** {!set_unsafe} unless the cell already holds the value (physical
    equality), which skips the write barrier. Unchecked. *)

val retire : 'a t -> 'a array * int
(** Hand the backing array back for a later [create ~recycled] and neuter
    the store (subsequent accesses raise). Returns [(cells, dirty)]: only
    cells below [dirty] were ever written. *)
