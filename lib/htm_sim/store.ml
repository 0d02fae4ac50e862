(* The simulated memory: a flat, growable array of cells addressed by
   integers. One cell models 8 bytes. All guest-visible mutable state of the
   VM lives here so that transactional footprint tracking, conflict
   detection, rollback and false sharing are uniform.

   [reserve] hands out address ranges like sbrk; callers build their own
   allocators (slot arena, malloc pools, frame stacks) on top.

   The HTM engine keeps per-line metadata in flat arrays sized from this
   store's capacity; [set_on_grow] lets it grow those tables in lockstep so
   its hot path never bounds-checks a line id. *)

type 'a t = {
  dummy : 'a;
  mutable cells : 'a array;
  mutable brk : int;  (** first unreserved address *)
  line_cells : int;
  line_shift : int;
      (** log2 line_cells: line ids are computed on every simulated memory
          access, so use a shift instead of a division *)
  mutable on_grow : int -> unit;
      (** called with the new capacity (in cells) after the backing array
          grows; single consumer (the HTM engine's line tables) *)
}

let create ?recycled ~dummy ~line_cells initial =
  if line_cells <= 0 || line_cells land (line_cells - 1) <> 0 then
    invalid_arg "Store.create: line_cells must be a power of two";
  let line_shift =
    let rec go s n = if n = 1 then s else go (s + 1) (n lsr 1) in
    go 0 line_cells
  in
  let initial = Int.max line_cells initial in
  (* A recycled backing ([retire]'s result) skips the Array.make — and with
     it the mmap / kernel-zeroing / page-fault churn of a fresh multi-MB
     array — at the cost of re-filling the prefix a previous owner dirtied.
     [set] never writes at or above [brk], so cells >= dirty still hold the
     dummy from their original allocation. *)
  let cells =
    match recycled with
    | Some (arr, dirty) when Array.length arr >= initial ->
        Array.fill arr 0 (Int.min dirty (Array.length arr)) dummy;
        arr
    | _ -> Array.make initial dummy
  in
  { dummy; cells; brk = 0; line_cells; line_shift; on_grow = ignore }

let capacity t = Array.length t.cells
let brk t = t.brk
let dummy t = t.dummy
let line_of t addr = addr lsr t.line_shift
let line_offset t addr = addr land (t.line_cells - 1)

let set_on_grow t f =
  t.on_grow <- f;
  (* sync the consumer with the current capacity immediately *)
  f (Array.length t.cells)

let ensure t n =
  if n > Array.length t.cells then begin
    let cap = ref (Array.length t.cells) in
    while n > !cap do
      cap := !cap * 2
    done;
    let cells = Array.make !cap t.dummy in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    t.cells <- cells;
    t.on_grow !cap
  end

(* Reserve [n] cells and return the base address. *)
let reserve t n =
  if n < 0 then invalid_arg "Store.reserve";
  let base = t.brk in
  t.brk <- t.brk + n;
  ensure t t.brk;
  base

(* Reserve [n] cells starting on a cache-line boundary. Used for padded
   (false-sharing-free) structures, per Section 4.4 of the paper. *)
let reserve_aligned t n =
  let rem = t.brk mod t.line_cells in
  if rem <> 0 then ignore (reserve t (t.line_cells - rem));
  reserve t n

let get t addr =
  if addr < 0 || addr >= t.brk then
    invalid_arg (Printf.sprintf "Store.get: address %d out of bounds" addr);
  Array.unsafe_get t.cells addr

let set t addr v =
  if addr < 0 || addr >= t.brk then
    invalid_arg (Printf.sprintf "Store.set: address %d out of bounds" addr);
  Array.unsafe_set t.cells addr v

(* Unchecked accessors for the interpreter's hot path. *)
let get_unsafe t addr = Array.unsafe_get t.cells addr
let set_unsafe t addr v = Array.unsafe_set t.cells addr v

(* [set_unsafe] unless the cell already holds [v] (physical equality): a
   rewrite of the same value skips the write barrier. One call, so the
   caller's fast path can stay a tail call. *)
let set_changed t addr v =
  if Array.unsafe_get t.cells addr != v then Array.unsafe_set t.cells addr v

(* Hand the backing array back for reuse by a later [create ~recycled] and
   neuter the store: any subsequent access through it is a bug and raises.
   The returned [dirty] bound is the high-water [brk] — the only prefix a
   new owner must re-initialise. *)
let retire t =
  let cells = t.cells and dirty = t.brk in
  t.cells <- Array.make t.line_cells t.dummy;
  t.brk <- 0;
  (cells, dirty)
