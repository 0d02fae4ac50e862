(* Indexed binary min-heap over guest thread ids, keyed (key, tid).

   The heap itself is two parallel int arrays (keys, tids); [pos] maps a
   tid to its heap index (-1 when absent), so membership tests, re-keying
   and removal never search. Every array holds ints, so no operation
   stores a pointer: no write barrier on the per-slice path. The sifts use
   the hole technique — the moving key/tid stay in locals and each level is
   written once. The hot test the runner makes after every step —
   [min_precedes] — is two array reads.

   Invariants behind the [unsafe_get]s: [0 <= i < n <= length keys =
   length tids], every [tids.(i)] indexes [pos], and [pos.(tid) = i] iff
   [tids.(i) = tid]. *)

type t = {
  mutable keys : int array;
  mutable tids : int array;
  mutable n : int;
  mutable pos : int array;  (* tid -> heap index, -1 absent *)
}

let create () =
  {
    keys = Array.make 16 max_int;
    tids = Array.make 16 max_int;
    n = 0;
    pos = Array.make 64 (-1);
  }

let size t = t.n
let is_empty t = t.n = 0

let grow_tid t tid =
  let n = Array.length t.pos in
  let m = Int.max (2 * n) (tid + 1) in
  let p = Array.make m (-1) in
  Array.blit t.pos 0 p 0 n;
  t.pos <- p

let[@inline] ensure_tid t tid = if tid >= Array.length t.pos then grow_tid t tid

let ensure_cap t n =
  if n > Array.length t.keys then begin
    let m = Int.max (2 * Array.length t.keys) n in
    let grow a =
      let b = Array.make m max_int in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.keys <- grow t.keys;
    t.tids <- grow t.tids
  end

let[@inline] mem t tid =
  tid < Array.length t.pos && Array.unsafe_get t.pos tid >= 0

(* Key order with ties broken by DESCENDING tid, matching the retained
   reference scan (which in turn matches the original prepend-ordered active
   list: newest thread first).  tids are unique so the order is total. *)
let[@inline] before (k1 : int) (d1 : int) k2 d2 =
  k1 < k2 || (k1 = k2 && d1 > d2)

let[@inline] place t i k d =
  Array.unsafe_set t.keys i k;
  Array.unsafe_set t.tids i d;
  Array.unsafe_set t.pos d i

(* Settle [(k, d)] into the hole at [i], moving parents down past it. *)
let sift_up t i k d =
  let i = ref i in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = Array.unsafe_get t.keys p and pd = Array.unsafe_get t.tids p in
    if before k d pk pd then begin
      place t !i pk pd;
      i := p
    end
    else continue_ := false
  done;
  place t !i k d

(* Settle [(k, d)] into the hole at [i], moving smaller children up. *)
let sift_down t i k d =
  let n = t.n in
  let i = ref i in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 in
    if l >= n then continue_ := false
    else begin
      let lk = Array.unsafe_get t.keys l and ld = Array.unsafe_get t.tids l in
      let r = l + 1 in
      let m, mk, md =
        if r < n then begin
          let rk = Array.unsafe_get t.keys r
          and rd = Array.unsafe_get t.tids r in
          if before rk rd lk ld then (r, rk, rd) else (l, lk, ld)
        end
        else (l, lk, ld)
      in
      if before mk md k d then begin
        place t !i mk md;
        i := m
      end
      else continue_ := false
    end
  done;
  place t !i k d

let push t ~key tid =
  ensure_tid t tid;
  let i = Array.unsafe_get t.pos tid in
  if i >= 0 then begin
    let old = Array.unsafe_get t.keys i in
    if key < old then sift_up t i key tid
    else if key > old then sift_down t i key tid
  end
  else begin
    ensure_cap t (t.n + 1);
    let i = t.n in
    t.n <- i + 1;
    sift_up t i key tid
  end

(* Take the element at [i] out; the last element fills the hole. *)
let remove_at t i =
  let tid = Array.unsafe_get t.tids i in
  Array.unsafe_set t.pos tid (-1);
  let last = t.n - 1 in
  t.n <- last;
  if i < last then begin
    let k = Array.unsafe_get t.keys last and d = Array.unsafe_get t.tids last in
    let p = (i - 1) / 2 in
    if
      i > 0
      && before k d (Array.unsafe_get t.keys p) (Array.unsafe_get t.tids p)
    then sift_up t i k d
    else sift_down t i k d
  end

let remove t tid = if mem t tid then remove_at t (Array.unsafe_get t.pos tid)
let min_key t = if t.n = 0 then max_int else Array.unsafe_get t.keys 0

let min_precedes t ~key ~tid =
  t.n > 0
  && before (Array.unsafe_get t.keys 0) (Array.unsafe_get t.tids 0) key tid

let pop_min t =
  if t.n = 0 then invalid_arg "Sched.pop_min: empty heap";
  let tid = Array.unsafe_get t.tids 0 in
  remove_at t 0;
  tid

let push_pop t ~key tid =
  if mem t tid then begin
    push t ~key tid;
    pop_min t
  end
  else if
    t.n = 0
    || before key tid (Array.unsafe_get t.keys 0) (Array.unsafe_get t.tids 0)
  then tid
  else begin
    (* heap-replace: [tid] takes the root's slot and sifts down once *)
    ensure_tid t tid;
    let root = Array.unsafe_get t.tids 0 in
    Array.unsafe_set t.pos root (-1);
    sift_down t 0 key tid;
    root
  end

let clear t =
  for i = 0 to t.n - 1 do
    t.pos.(t.tids.(i)) <- -1
  done;
  t.n <- 0
