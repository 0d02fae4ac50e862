(** A word-based, TL2-style software transactional memory over the
    simulated store: the hybrid scheme's concurrent fallback for
    persistent/capacity hardware aborts.

    Writes are redo-logged (uncommitted software state never reaches the
    store); reads are invisible and validated per-read against the hardware
    engine's shared versioned-line table, which gives opacity. Commits
    publish through the engine's committed-write path, so they abort
    conflicting hardware transactions and rewrite a store-resident commit
    clock cell that hardware transactions subscribe to like the GIL word. *)

open Htm_sim

type 'a t

val create : ?clock:Tm_clock.t -> mk_clock:(int -> 'a) -> 'a Htm.t -> 'a t
(** Builds the STM over the engine's store, reserves the (cache-line
    aligned) commit-clock cell plus the two stat-mirror cells — each on
    its own store line — and installs the software-access hooks so
    [Htm.read]/[Htm.write] route here for contexts inside a software
    transaction. [mk_clock] boxes a clock value into a store cell;
    [clock] selects the global-clock scheme writing commits publish
    under (a fresh GV1 clock — the paper's protocol — by default). *)

val clock_cell : 'a t -> int
(** Address of the commit-clock cell hardware transactions subscribe to. *)

val bumps_cell : 'a t -> int
(** Address of the stat cell mirroring [Tm_clock.bumps]; padded to its
    own store line so stat reads never alias clock traffic. *)

val skipped_cell : 'a t -> int
(** Address of the stat cell mirroring [Tm_clock.skipped], same padding. *)

val clock : 'a t -> Tm_clock.t
(** The global-clock scheme instance this STM publishes under. *)

val in_txn : 'a t -> int -> bool
val pending_abort : 'a t -> int -> Txn.abort_reason option
val clear_pending_abort : 'a t -> int -> unit

val abort_line : 'a t -> int -> int
(** The line whose version check killed the context's last software
    transaction (or the GIL line for conflict kills); -1 when unknown. *)

val footprint_rs : 'a t -> int -> int
val footprint_ws : 'a t -> int -> int
(** Read-set lines and redo-log words of the current or just-aborted
    transaction; reset only at the next begin. *)

val begin_ : 'a t -> ctx:int -> rollback:(Txn.abort_reason -> unit) -> unit
(** Start a software transaction: snapshot the commit clock and clear the
    read/write sets (O(1), generation stamps). The rollback closure is
    invoked on abort, like the hardware engine's. *)

val validate : 'a t -> ctx:int -> int
(** Commit-time read-set validation: the failing line id, or -1 when every
    read is still current. Side-effect free. *)

val commit : 'a t -> ctx:int -> unit
(** Publish the redo log and rewrite the commit-clock cell (killing
    subscribed hardware transactions). The caller must have validated; the
    simulator's whole-bytecode interleaving makes validate-then-apply
    atomic in virtual time. *)

val abort : 'a t -> ctx:int -> ?line:int -> Txn.abort_reason -> unit
(** Abort the context's software transaction: discard the redo log, record
    the pending abort and run the rollback closure. Does not raise (the
    in-instruction abort path goes through {!Htm.software_abort}). *)

type stats = {
  mutable begins : int;
  mutable commits : int;
  mutable read_only_commits : int;
  mutable aborts_validation : int;
  mutable aborts_conflict : int;  (** killed by a GIL acquisition *)
  mutable aborts_explicit : int;
  mutable accesses : int;
  mutable rs_total : int;  (** committed read-set lines *)
  mutable ws_total : int;  (** committed redo-log words *)
  mutable rs_max : int;
  mutable ws_max : int;
}

val stats : 'a t -> stats
val stats_create : unit -> stats
val stats_aborts : stats -> int
val stats_to_assoc : stats -> (string * int) list

(** Per-site retry budgets for the contention manager, keyed by
    (code uid, pc) exactly like [Core.Txlen]'s site statistics: sites whose
    windows keep failing validation get their retry allowance halved,
    successful commits let it recover. *)
module Budget : sig
  type t

  val create : ?initial:int -> ?min_budget:int -> unit -> t
  val allowed : t -> uid:int -> pc:int -> int
  val punish : t -> uid:int -> pc:int -> unit
  val reward : t -> uid:int -> pc:int -> unit

  val stats : t -> float * float
  (** (fraction of touched sites at the minimum budget, mean budget). *)
end
