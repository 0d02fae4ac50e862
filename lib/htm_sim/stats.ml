(* Aggregate HTM statistics for one run. *)

type t = {
  mutable begins : int;
  mutable commits : int;
  mutable aborts_conflict : int;
  mutable aborts_overflow_read : int;
  mutable aborts_overflow_write : int;
  mutable aborts_explicit : int;
  mutable aborts_eager : int;
  mutable rs_total : int;  (** sum of committed read-set sizes (lines) *)
  mutable ws_total : int;
  mutable rs_max : int;
  mutable ws_max : int;
  mutable txn_accesses : int;
  mutable non_txn_accesses : int;
  mutable coherence_transfers : int;
}

let create () =
  {
    begins = 0;
    commits = 0;
    aborts_conflict = 0;
    aborts_overflow_read = 0;
    aborts_overflow_write = 0;
    aborts_explicit = 0;
    aborts_eager = 0;
    rs_total = 0;
    ws_total = 0;
    rs_max = 0;
    ws_max = 0;
    txn_accesses = 0;
    non_txn_accesses = 0;
    coherence_transfers = 0;
  }

let record_abort t (reason : Txn.abort_reason) =
  match reason with
  | Conflict -> t.aborts_conflict <- t.aborts_conflict + 1
  | Overflow_read -> t.aborts_overflow_read <- t.aborts_overflow_read + 1
  | Overflow_write -> t.aborts_overflow_write <- t.aborts_overflow_write + 1
  | Explicit -> t.aborts_explicit <- t.aborts_explicit + 1
  | Eager -> t.aborts_eager <- t.aborts_eager + 1
  (* software-transaction validation failures are accounted by the STM
     engine's own statistics, not the hardware counters *)
  | Validation -> ()

let aborts t =
  t.aborts_conflict + t.aborts_overflow_read + t.aborts_overflow_write
  + t.aborts_explicit + t.aborts_eager

(* Abort ratio as the paper reports it: aborted transactions over started
   transactions. *)
let abort_ratio t = if t.begins = 0 then 0.0 else float_of_int (aborts t) /. float_of_int t.begins

(* Accumulate [src] into [dst]: sums for counters, max for the set-size
   high-water marks. Used to aggregate per-shard or repeated runs. *)
let merge dst src =
  dst.begins <- dst.begins + src.begins;
  dst.commits <- dst.commits + src.commits;
  dst.aborts_conflict <- dst.aborts_conflict + src.aborts_conflict;
  dst.aborts_overflow_read <- dst.aborts_overflow_read + src.aborts_overflow_read;
  dst.aborts_overflow_write <- dst.aborts_overflow_write + src.aborts_overflow_write;
  dst.aborts_explicit <- dst.aborts_explicit + src.aborts_explicit;
  dst.aborts_eager <- dst.aborts_eager + src.aborts_eager;
  dst.rs_total <- dst.rs_total + src.rs_total;
  dst.ws_total <- dst.ws_total + src.ws_total;
  dst.rs_max <- Int.max dst.rs_max src.rs_max;
  dst.ws_max <- Int.max dst.ws_max src.ws_max;
  dst.txn_accesses <- dst.txn_accesses + src.txn_accesses;
  dst.non_txn_accesses <- dst.non_txn_accesses + src.non_txn_accesses;
  dst.coherence_transfers <- dst.coherence_transfers + src.coherence_transfers

let to_assoc t =
  [
    ("begins", t.begins);
    ("commits", t.commits);
    ("aborts", aborts t);
    ("aborts_conflict", t.aborts_conflict);
    ("aborts_overflow_read", t.aborts_overflow_read);
    ("aborts_overflow_write", t.aborts_overflow_write);
    ("aborts_explicit", t.aborts_explicit);
    ("aborts_eager", t.aborts_eager);
    ("rs_total", t.rs_total);
    ("ws_total", t.ws_total);
    ("rs_max", t.rs_max);
    ("ws_max", t.ws_max);
    ("txn_accesses", t.txn_accesses);
    ("non_txn_accesses", t.non_txn_accesses);
    ("coherence_transfers", t.coherence_transfers);
  ]

let mean_rs t = if t.commits = 0 then 0.0 else float_of_int t.rs_total /. float_of_int t.commits
let mean_ws t = if t.commits = 0 then 0.0 else float_of_int t.ws_total /. float_of_int t.commits

let pp fmt t =
  Format.fprintf fmt
    "begins=%d commits=%d aborts=%d (conflict=%d ovf-r=%d ovf-w=%d explicit=%d eager=%d) \
     abort-ratio=%.2f%% rs-mean=%.1f ws-mean=%.1f rs-max=%d ws-max=%d"
    t.begins t.commits (aborts t) t.aborts_conflict t.aborts_overflow_read
    t.aborts_overflow_write t.aborts_explicit t.aborts_eager
    (100.0 *. abort_ratio t) (mean_rs t) (mean_ws t) t.rs_max t.ws_max
