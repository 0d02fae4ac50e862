(* Indexed binary min-heap over guest thread ids, keyed (key, tid).

   Each element is one packed int, [key lsl tid_bits lor (max_tid - tid)]:
   the key in the high bits, the tid complemented in the low ones, so a
   single int compare orders by key and breaks ties by DESCENDING tid, and
   the tid is recovered from the low bits. [pos] maps a tid to its heap
   index (-1 when absent), so membership tests, re-keying and removal never
   search. Every array holds ints, so no operation stores a pointer: no
   write barrier on the per-slice path. The sifts use the hole technique —
   the moving element stays in a local and each level is written once.

   Invariants behind the [unsafe_get]s: [0 <= i < n <= length els], every
   element's tid indexes [pos], and [pos.(tid) = i] iff [els.(i)] holds
   [tid]. *)

type t = {
  mutable els : int array;
  mutable n : int;
  mutable pos : int array;  (* tid -> heap index, -1 absent *)
}

let tid_bits = 20
let max_tid = (1 lsl tid_bits) - 1
let max_key = max_int asr tid_bits

let create () = { els = Array.make 16 max_int; n = 0; pos = Array.make 64 (-1) }
let size t = t.n
let is_empty t = t.n = 0

(* Key order with ties broken by DESCENDING tid, matching the retained
   reference scan (which in turn matches the original prepend-ordered active
   list: newest thread first). tids are unique so the order is total. *)
let[@inline] pack key tid = (key lsl tid_bits) lor (max_tid - tid)
let[@inline] tid_of e = max_tid - (e land max_tid)

let[@inline never] out_of_range key tid =
  if tid < 0 || tid > max_tid then
    invalid_arg
      (Printf.sprintf "Sched.push: tid %d outside [0, %d]" tid max_tid)
  else
    invalid_arg
      (Printf.sprintf "Sched.push: key %d outside [0, %d]" key max_key)

let[@inline] check key tid =
  if tid < 0 || tid > max_tid || key < 0 || key > max_key then
    out_of_range key tid

let grow_tid t tid =
  let n = Array.length t.pos in
  let m = Int.max (2 * n) (tid + 1) in
  let p = Array.make m (-1) in
  Array.blit t.pos 0 p 0 n;
  t.pos <- p

let[@inline] ensure_tid t tid = if tid >= Array.length t.pos then grow_tid t tid

let ensure_cap t n =
  if n > Array.length t.els then begin
    let b = Array.make (Int.max (2 * Array.length t.els) n) max_int in
    Array.blit t.els 0 b 0 t.n;
    t.els <- b
  end

let[@inline] mem t tid =
  tid >= 0 && tid < Array.length t.pos && Array.unsafe_get t.pos tid >= 0

let[@inline] place t i e =
  Array.unsafe_set t.els i e;
  Array.unsafe_set t.pos (tid_of e) i

(* Settle [e] into the hole at [i], moving parents down past it. *)
let sift_up t i e =
  let i = ref i in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    let pe = Array.unsafe_get t.els p in
    if e < pe then begin
      place t !i pe;
      i := p
    end
    else continue_ := false
  done;
  place t !i e

(* Settle [e] into the hole at [i], moving smaller children up. *)
let sift_down t i e =
  let n = t.n in
  let i = ref i in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 in
    if l >= n then continue_ := false
    else begin
      let le = Array.unsafe_get t.els l in
      let r = l + 1 in
      let re = if r < n then Array.unsafe_get t.els r else max_int in
      (* the smaller child without a branch on the comparison, which is a
         coin flip for the heap's random keys: [c] is -1 when [re < le]
         (elements are non-negative, so the difference cannot overflow) *)
      let c = (re - le) asr (Sys.int_size - 1) in
      let m = l - c and me = le + (c land (re - le)) in
      if me < e then begin
        place t !i me;
        i := m
      end
      else continue_ := false
    end
  done;
  place t !i e

let push t ~key tid =
  check key tid;
  ensure_tid t tid;
  let e = pack key tid in
  let i = Array.unsafe_get t.pos tid in
  if i >= 0 then begin
    let old = Array.unsafe_get t.els i in
    if e < old then sift_up t i e else if e > old then sift_down t i e
  end
  else begin
    ensure_cap t (t.n + 1);
    let i = t.n in
    t.n <- i + 1;
    sift_up t i e
  end

(* Take the element at [i] out; the last element fills the hole. *)
let remove_at t i =
  Array.unsafe_set t.pos (tid_of (Array.unsafe_get t.els i)) (-1);
  let last = t.n - 1 in
  t.n <- last;
  if i < last then begin
    let e = Array.unsafe_get t.els last in
    if i > 0 && e < Array.unsafe_get t.els ((i - 1) / 2) then sift_up t i e
    else sift_down t i e
  end

let remove t tid = if mem t tid then remove_at t (Array.unsafe_get t.pos tid)

let min_key t =
  if t.n = 0 then max_int else Array.unsafe_get t.els 0 asr tid_bits

let min_precedes t ~key ~tid =
  t.n > 0 && Array.unsafe_get t.els 0 < pack key tid

let pop_min t =
  if t.n = 0 then invalid_arg "Sched.pop_min: empty heap";
  let tid = tid_of (Array.unsafe_get t.els 0) in
  remove_at t 0;
  tid

let push_pop t ~key tid =
  if mem t tid then begin
    push t ~key tid;
    pop_min t
  end
  else begin
    check key tid;
    let e = pack key tid in
    if t.n = 0 || e < Array.unsafe_get t.els 0 then tid
    else begin
      (* heap-replace: [tid] takes the root's slot and sifts down once *)
      ensure_tid t tid;
      let root = tid_of (Array.unsafe_get t.els 0) in
      Array.unsafe_set t.pos root (-1);
      sift_down t 0 e;
      root
    end
  end

let clear t =
  for i = 0 to t.n - 1 do
    t.pos.(tid_of t.els.(i)) <- -1
  done;
  t.n <- 0
