(* Dynamic transaction-length adjustment (Figure 3). One entry per
   yield-point bytecode, keyed by (code uid, pc). *)

type mode = Constant of int | Dynamic

type params = {
  initial_length : int;  (** INITIAL_TRANSACTION_LENGTH = 255 *)
  profiling_period : int;  (** PROFILING_PERIOD = 300 *)
  adjustment_threshold : int;  (** 3 on zEC12 (1%), 18 on Xeon (6%) *)
  attenuation_rate : float;  (** ATTENUATION_RATE = 0.75 *)
}

let default_params =
  {
    initial_length = 255;
    profiling_period = 300;
    adjustment_threshold = 3;
    attenuation_rate = 0.75;
  }

(* The paper sets the target abort ratio per machine: 1% on zEC12, 6% on the
   Xeon (Section 5.1), i.e. threshold / period. The paper's
   INITIAL_TRANSACTION_LENGTH is 255 and reports insensitivity to the choice
   because runs last 10-300 seconds; our simulated runs are ~50x shorter, so
   the default initial length is scaled down correspondingly to keep the
   warmup fraction comparable (the paper value remains in
   [default_params]). *)
let params_for (machine : Htm_sim.Machine.t) =
  let p = { default_params with initial_length = 64 } in
  if machine.learning then { p with adjustment_threshold = 18 } else p

type entry = {
  mutable length : int;
  mutable txn_counter : int;
  mutable abort_counter : int;
}

type t = {
  mode : mode;
  params : params;
  mutable entries : entry array array;
      (** [entries.(uid).(pc)]: code uids are small sequential ints and a
          yield point's pc indexes that code's instruction array, so the
          table is two direct array loads on the hot path (a transaction
          windows can be one instruction long, making this per-instruction
          work under HTM-1). Rows allocate lazily, sized to the code's
          instruction count; [no_entry] marks untouched slots (compared
          physically). An earlier Hashtbl keyed (uid, pc) allocated and
          hashed a tuple per lookup; packing both into one int instead
          silently aliased entries once pc outgrew the packed field. *)
}

let no_entry = { length = 0; txn_counter = 0; abort_counter = 0 }

let create ?(params = default_params) mode =
  { mode; params; entries = Array.make 64 [||] }

let entry t (code : Rvm.Value.code) pc =
  let uid = code.uid in
  if uid >= Array.length t.entries then begin
    let n = ref (Array.length t.entries) in
    while uid >= !n do
      n := !n * 2
    done;
    let bigger = Array.make !n [||] in
    Array.blit t.entries 0 bigger 0 (Array.length t.entries);
    t.entries <- bigger
  end;
  let row =
    let row = Array.unsafe_get t.entries uid in
    if pc < Array.length row then row
    else begin
      (* first touch sizes the row to the code's instruction count, the
         right size for every in-VM pc; grow anyway if a caller probes
         beyond it *)
      let n = Int.max (pc + 1) (Int.max (2 * Array.length row) (Array.length code.insns)) in
      let bigger = Array.make n no_entry in
      Array.blit row 0 bigger 0 (Array.length row);
      t.entries.(uid) <- bigger;
      bigger
    end
  in
  let e = row.(pc) in
  if e != no_entry then e
  else begin
    let e = { length = t.params.initial_length; txn_counter = 0; abort_counter = 0 } in
    row.(pc) <- e;
    e
  end

(* set_transaction_length (Figure 3, lines 1-10): the length of the next
   transaction starting at this yield point. *)
let set_transaction_length t ~code ~pc =
  match t.mode with
  | Constant n -> n
  | Dynamic ->
      let e = entry t code pc in
      if e.txn_counter < t.params.profiling_period then
        e.txn_counter <- e.txn_counter + 1;
      e.length

(* adjust_transaction_length (Figure 3, lines 11-24): called on the first
   retry after an abort of a transaction that started at this yield point. *)
let adjust_transaction_length t ~code ~pc =
  match t.mode with
  | Constant _ -> ()
  | Dynamic ->
      let e = entry t code pc in
      if e.length > 1 && e.txn_counter <= t.params.profiling_period then begin
        if e.abort_counter <= t.params.adjustment_threshold then
          e.abort_counter <- e.abort_counter + 1
        else begin
          e.length <-
            Int.max 1 (int_of_float (float_of_int e.length *. t.params.attenuation_rate));
          e.txn_counter <- 0;
          e.abort_counter <- 0
        end
      end

(* Fraction of (frequently used) yield points whose adjusted length is 1 —
   the paper reports 40% for 12-thread NPB on zEC12 (Section 5.5). *)
let stats t =
  let total = ref 0 and at_one = ref 0 and sum = ref 0 in
  Array.iter
    (Array.iter (fun e ->
         if e.txn_counter > 0 then begin
           incr total;
           sum := !sum + e.length;
           if e.length = 1 then incr at_one
         end))
    t.entries;
  let total = Int.max 1 !total in
  ( float_of_int !at_one /. float_of_int total,
    float_of_int !sum /. float_of_int total )
