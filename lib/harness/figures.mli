(** One driver per figure of the paper's evaluation section. Each runs the
    sweep, prints the series the paper plots, and returns the raw data so
    tests and EXPERIMENTS.md can check the shapes. *)

val schemes_fig5 : Core.Scheme.kind list
val thread_counts : Htm_sim.Machine.t -> int list
val wl : string -> Workloads.Workload.t

type panel = {
  workload : string;
  machine : string;
  baseline_wall : int;  (** 1-thread GIL *)
  cells : (string * int, float) Hashtbl.t;
      (** (scheme, threads) -> throughput normalised to 1-thread GIL *)
  aborts : (string * int, float) Hashtbl.t;
  outcomes : (string * int, Exp.outcome) Hashtbl.t;
  metrics : Obs.Metrics.t;
      (** the points' registries, merged in (scheme, threads) grid order —
          deterministic regardless of the worker count *)
}

val run_panel :
  ?schemes:Core.Scheme.kind list ->
  ?size:Workloads.Size.t ->
  machine:Htm_sim.Machine.t ->
  threads_list:int list ->
  string ->
  panel

val print_panel :
  Format.formatter ->
  panel ->
  schemes:Core.Scheme.kind list ->
  threads_list:int list ->
  unit

val fig4 : ?size:Workloads.Size.t -> Format.formatter -> panel list
(** While/Iterator microbenchmarks (zEC12, all schemes). *)

val fig5 :
  ?size:Workloads.Size.t ->
  ?machines:Htm_sim.Machine.t list ->
  ?benchmarks:string list ->
  Format.formatter ->
  panel list
(** NPB throughput on both machines under all five schemes. *)

type fig6a_point = { iteration : int; written_kb : int; success_pct : float }

val fig6a : ?iters_per_phase:int -> Format.formatter -> fig6a_point list
(** The Haswell write-set shrink test (24/20/16/12 KB phases). *)

val fig6b : Format.formatter -> panel
(** BT at class W on the Xeon: the adjustment converges on longer runs. *)

val fig7 : ?size:Workloads.Size.t -> Format.formatter -> panel list
(** WEBrick (both machines) and Rails (Xeon) vs concurrent clients. *)

val fig8 :
  ?size:Workloads.Size.t ->
  Format.formatter ->
  ((string * string) * (int * Exp.outcome) list) list
(** HTM-dynamic abort ratios per thread count, plus the 12-thread zEC12
    cycle breakdowns. *)

val fig9 :
  ?size:Workloads.Size.t ->
  Format.formatter ->
  (string * (string * (int * float) list) list) list
(** Scalability of HTM-dynamic vs the JRuby / Java NPB baselines. *)

val schemes_hybrid : Core.Scheme.kind list
(** [GIL; HTM-dynamic; hybrid] — the fallback-strategy comparison grid. *)

val hybrid_machine : Htm_sim.Machine.t
(** zEC12 with a quarter of the store-buffer budget, so capacity overflow
    (and therefore the fallback path) dominates. *)

val fig_hybrid : ?size:Workloads.Size.t -> Format.formatter -> panel list
(** Hybrid-TM panel: GIL-only fallback (HTM-dynamic) vs software-transaction
    fallback (hybrid) on the NPB set and WEBrick, 1-12 threads, on
    {!hybrid_machine}. *)

val schemes_load : Core.Scheme.kind list
(** [GIL; HTM-dynamic; hybrid; stm] — the open-loop comparison grid. *)

val offered_loads : string -> float list
(** The offered-load sweep (req/s) for a workload name, chosen to straddle
    every scheme's closed-loop capacity. *)

val load_seed : int
(** The arrival-schedule seed shared by the whole load family: every scheme
    at a given rate sees the identical arrival schedule. *)

type load_point = {
  lp_scheme : string;
  lp_offered : float;
  lp_stats : Exp.load;
}

type load_panel = {
  lp_workload : string;
  lp_machine : string;
  lp_clients : int;
  lp_arrival : string;  (** "poisson" or "burst-N" *)
  lp_points : load_point list;  (** scheme-major, offered-load-minor *)
}

val run_load_panel :
  ?schemes:Core.Scheme.kind list ->
  ?size:Workloads.Size.t ->
  ?clients:int ->
  ?burst:int ->
  machine:Htm_sim.Machine.t ->
  string ->
  load_panel
(** Open-loop sweep of one server workload: schemes x {!offered_loads},
    Poisson arrivals (or bursts of [burst] when given). *)

val load_cell : load_panel -> string -> float -> load_point option
(** [load_cell panel scheme offered]: one grid cell, if present. *)

val print_load_panel :
  Format.formatter -> load_panel -> schemes:Core.Scheme.kind list -> unit

val load_json : load_panel -> Obs.Json.t
(** Deterministic JSON for one panel — the member bench digests (FNV-1a)
    and the scheduler-stability tests compare. *)

val fig_load : ?size:Workloads.Size.t -> Format.formatter -> load_panel list
(** Throughput vs offered load with p50/p95/p99 request latency per scheme:
    WEBrick/zEC12 (Poisson and burst-8) and Rails/Xeon (Poisson). *)

val schemes_shard : Core.Scheme.kind list
(** [GIL; HTM-dynamic; hybrid] — the sharded-serving comparison grid. *)

val shard_counts : int list
(** The shard-count sweep: 1, 2, 4 full VM instances. *)

val shard_rate : string -> float
(** The offered load (req/s) for a workload's shard panel — strongly
    oversaturating, so a single shard is queue-bound and aggregate served
    req/s tracks the shard count. *)

type shard_point = {
  sp_scheme : string;
  sp_shards : int;
  sp_result : Shard.result;
}

type shard_panel = {
  sp_workload : string;
  sp_machine : string;
  sp_policy : string;
  sp_rate : float;
  sp_requests : int;
  sp_clients : int;
  sp_points : shard_point list;  (** scheme-major, shard-count-minor *)
}

val run_shard_panel :
  ?schemes:Core.Scheme.kind list ->
  ?size:Workloads.Size.t ->
  ?clients:int ->
  machine:Htm_sim.Machine.t ->
  string ->
  shard_panel
(** Sharded-serving sweep of one server workload: schemes x
    {!shard_counts}, round-robin split of one global Poisson schedule,
    shared session store replayed post-hoc on every cell. Cells run
    sequentially (Shard.run owns its own SHARDS-sized pool), so the
    result never depends on BENCH_JOBS. *)

val shard_cell : shard_panel -> string -> int -> shard_point option
(** [shard_cell panel scheme shards]: one grid cell, if present. *)

val print_shard_panel :
  Format.formatter -> shard_panel -> schemes:Core.Scheme.kind list -> unit

val shard_json : shard_panel -> Obs.Json.t
(** Deterministic JSON for one panel — the member the bench digests
    (FNV-1a) and the placement/scheduler CI legs compare. *)

val fig_shard : ?size:Workloads.Size.t -> Format.formatter -> shard_panel list
(** Aggregate served req/s and p50/p95/p99 latency vs shard count x
    scheme: WEBrick/zEC12 and Rails/Xeon, with the shared-session
    contention ablation. *)

val clock_safe_machine : Htm_sim.Machine.t
(** {!hybrid_machine} with [Machine.lazy_sub_safe = true]: the descriptor
    variant advertising Dice et al.'s hardware fix, required for the
    [Lazy_safe] cell of the clock grid. *)

val clock_variants :
  (Tm_clock.scheme * Htm_sim.Subscription.t * Htm_sim.Machine.t) list
(** The clock-figure grid: GV1/GV5/GV6 under eager subscription, then
    GV1 under lazy and (on {!clock_safe_machine}) safe-lazy subscription. *)

type clock_point = {
  cp_clock : string;
  cp_subscription : string;
  cp_outcome : string;
      (** "ok", or the failure class when the modeled lazy-subscription
          hazard corrupts the run ("stuck" / "guest-failure" / "error") —
          deterministic, so it digests like any other cell *)
  cp_wall : int;
  cp_completed : int;
  cp_htm_commits : int;
  cp_htm_aborts : int;
  cp_fb_gil : int;
  cp_fb_stm : int;
  cp_stm_commits : int;
  cp_stm_validation_aborts : int;
  cp_bumps : int;  (** commit-clock cell writes (what hardware sees) *)
  cp_skipped : int;  (** GV5-mode commits that avoided the cell write *)
  cp_switches : int;  (** GV6 regime changes *)
  cp_kill_gil : int;  (** hardware aborts on the GIL word's line *)
  cp_kill_clock : int;  (** hardware aborts on the clock cell's line *)
}

type clock_panel = {
  cl_workload : string;
  cl_machine : string;
  cl_threads : int;
  cl_points : clock_point list;  (** in {!clock_variants} order *)
}

val run_clock_panel :
  ?size:Workloads.Size.t -> ?threads:int -> string -> clock_panel
(** Run one workload through the whole {!clock_variants} grid under the
    hybrid scheme on {!hybrid_machine} (capacity-starved, so the STM
    fallback — and therefore the commit clock — is hot). *)

val clock_cell :
  clock_panel -> clock:string -> subscription:string -> clock_point option

val print_clock_panel : Format.formatter -> clock_panel -> unit

val clock_json : clock_panel -> Obs.Json.t
(** Deterministic JSON for one panel — the "clock" member the bench
    digests (FNV-1a) and the CI legs compare. *)

val fig_clock : ?size:Workloads.Size.t -> Format.formatter -> clock_panel list
(** The commit-clock/subscription ablation on WEBrick (GC-heavy server)
    and IS (STM-fallback-heavy compute). *)

val ablation :
  ?size:Workloads.Size.t ->
  ?threads:int ->
  Format.formatter ->
  (string * float * float * float * float) list
(** Section 5.4: (bench, GIL, HTM-dynamic, original-yield-points,
    no-conflict-removal), all relative to 1-thread GIL. *)

val overhead :
  ?size:Workloads.Size.t -> Format.formatter -> (string * float) list
(** Section 5.6: single-thread overhead of HTM-dynamic vs the GIL, %. *)

val refcount :
  ?size:Workloads.Size.t ->
  ?threads:int ->
  Format.formatter ->
  (string * Exp.outcome * Exp.outcome) list
(** Section 7: CPython-style reference counting vs Ruby-style GC under
    HTM-dynamic — reference counting defeats the elision. *)

val future_work :
  ?size:Workloads.Size.t ->
  ?threads:int ->
  Format.formatter ->
  (string * Exp.outcome * Exp.outcome) list
(** Section 5.6 future work: eager vs thread-local lazy sweeping. *)
