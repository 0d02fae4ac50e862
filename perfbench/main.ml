(* The repository benchmark: three workloads driven through the simulator's
   public API in one host process, with every layer timed from outside by
   wrapping the benchmark's own calls into it.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (see BENCHMARK.json for why each is here):
   - npb-htm12: NPB BT and CG, class W, zEC12, HTM-dynamic, 12 guest threads;
   - npb-gil1: the same kernels under the GIL with 1 guest thread;
   - rails-open: Rails on the Xeon E3 under hybrid TM, 4 server threads,
     800 open-loop Poisson arrivals at 4500 req/s drawn from the
     static/orm/regex mix.

   Each number is either host (what the simulator costs on the machine
   running it: seconds, ns, MB) or sim (what the modelled machine would
   take, in cycles of its 1 GHz virtual clock, so 1 Mcycle = 1 ms and
   1 kcycle = 1 us). Sim numbers are deterministic for a given seed. Host
   times are scaled to a nominal host speed with a reference loop timed
   next to each measurement (see [reference]).

   With --trace 0 the run measures the end-to-end metrics with no tracing.
   With --trace 1 the first iterations are each repeated traced: the repeat
   records spans (setup with its layer calls, run split into Runner.advance
   chunks carrying counter deltas) in memory, must reproduce the plain
   iteration's sim counters exactly, and gives the per-layer host figures
   and the tracing overhead. Spans are written to perfbench/_out/ as a
   Chrome trace when the run ends.

   Every operation is checked: kernel checksums must be exact, an open-loop
   run must account for every offered request, a repeated arrival schedule
   and a traced iteration must reproduce the sim counters they repeat. The
   last line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics; the exit code is 1 when anything failed
   and 2 on a usage or configuration error. *)

open Htm_sim
module R = Core.Runner

(* ---- the workloads ---------------------------------------------------- *)

type kind = Npb of string list | Rails_open

type spec = {
  name : string;
  describe : string;
  machine : Machine.t;
  scheme : Core.Scheme.kind;
  threads : int;  (** guest threads, or server threads for rails-open *)
  kind : kind;
}

let specs =
  [
    {
      name = "npb-htm12";
      describe = "NPB BT+CG class W, zEC12, htm-dynamic, 12 threads";
      machine = Machine.zec12;
      scheme = Core.Scheme.Htm_dynamic;
      threads = 12;
      kind = Npb [ "bt"; "cg" ];
    };
    {
      name = "npb-gil1";
      describe = "NPB BT+CG class W, zEC12, GIL, 1 thread";
      machine = Machine.zec12;
      scheme = Core.Scheme.Gil_only;
      threads = 1;
      kind = Npb [ "bt"; "cg" ];
    };
    {
      name = "rails-open";
      describe =
        "Rails class W, Xeon E3, hybrid, 4 server threads, Poisson 4500 req/s, \
         static/orm/regex mix";
      machine = Machine.xeon_e3;
      scheme = Core.Scheme.Hybrid;
      threads = 4;
      kind = Rails_open;
    };
  ]

let size = Workloads.Size.W

(* Class W checksums: identical under every scheme and thread count. *)
let checksums = [ ("bt", 115421454); ("cg", 399259) ]
let rails_requests = 800
let rails_rate = 4500.0

(* Distinct inputs per run: iteration i replays input i mod [schedules spec],
   and the sim metrics pool the first [schedules spec] iterations. On
   rails-open each input is an arrival schedule; one schedule's p99 rests on
   8 requests, so the run summarizes sixteen. NPB inputs are fixed. *)
let schedules spec = match spec.kind with Npb _ -> 1 | Rails_open -> 16
let min_iterations = 3

(* With --trace 1, iterations 0..[traced_iterations] are each followed by a
   traced repeat; iteration 0's pair is a warm-up like its plain run. *)
let traced_iterations = 3
let setup_reps = 15

(* Virtual-time length of one traced [Runner.advance] chunk. *)
let horizon = 2_000_000

(* Library defaults that read these would change what is measured. *)
let refused_env =
  [ "BENCH_INTERP"; "BENCH_HOT"; "BENCH_SCHED"; "BENCH_CLOCK"; "BENCH_SUB";
    "BENCH_JOBS"; "SHARDS" ]

let kernels spec = match spec.kind with Npb ks -> ks | Rails_open -> [ "rails" ]

let workload k =
  match Workloads.Workload.find k with
  | Some w -> w
  | None -> invalid_arg ("perfbench: unknown workload " ^ k)

let sub_seed seed j = Hashtbl.hash (seed, j)

(* ---- host clock and spans --------------------------------------------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The host's speed drifts by tens of percent over minutes (it is shared),
   so every host time is reported at a nominal speed: measured ns times
   [ref_iters] over the ns of a fixed integer loop of [ref_iters] steps timed
   next to the measurement, i.e. on a host that runs the loop at one step per
   ns. The raw figures are printed beside the normalized ones. *)
let ref_iters = 10_000_000
let refs = ref []

let reference () =
  let t0 = now_ns () in
  let x = ref 0 in
  for k = 1 to ref_iters do
    x := !x lxor (k * 2654435761)
  done;
  ignore (Sys.opaque_identity !x);
  let ns = now_ns () - t0 in
  refs := ns :: !refs;
  ns

let nominal ~ref_ns ns = float_of_int ns *. float_of_int ref_iters /. float_of_int ref_ns

module Spans = struct
  type t = {
    sid : int;
    iter : int;
    name : string;
    parent : int;  (** 0 = root *)
    t0 : int;
    t1 : int;
    attrs : (string * int) list;
  }

  let on = ref false
  let iter = ref 0
  let all : t list ref = ref []
  let next = ref 0
  let stack = ref []

  (* Time [f] as a child of the innermost open span; free when tracing is
     off. [attrs] derives the span's counters from [f]'s result. *)
  let within ?(attrs = fun _ -> []) name f =
    if not !on then f ()
    else begin
      incr next;
      let sid = !next in
      let parent = match !stack with p :: _ -> p | [] -> 0 in
      stack := sid :: !stack;
      let t0 = now_ns () in
      let r = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
      let t1 = now_ns () in
      all := { sid; iter = !iter; name; parent; t0; t1; attrs = attrs r } :: !all;
      r
    end

  (* Total host ns per span name within each selected iteration. *)
  let totals name ~iter =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun s ->
        if s.name = name && iter s.iter then
          Hashtbl.replace tbl s.iter
            ((s.t1 - s.t0) + Option.value ~default:0 (Hashtbl.find_opt tbl s.iter)))
      !all;
    Hashtbl.fold (fun _ v acc -> float_of_int v :: acc) tbl []

  (* Chrome trace-event JSON (loads in Perfetto / chrome://tracing). *)
  let write path =
    let oc = open_out path in
    let base = List.fold_left (fun m s -> min m s.t0) max_int !all in
    output_string oc "{\"traceEvents\":[\n";
    List.iteri
      (fun i s ->
        if i > 0 then output_string oc ",\n";
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
           \"args\":{\"id\":%d,\"parent\":%d,\"iteration\":%d%s}}"
          s.name
          (float_of_int (s.t0 - base) /. 1e3)
          (float_of_int (s.t1 - s.t0) /. 1e3)
          s.sid s.parent s.iter
          (String.concat ""
             (List.map (fun (k, v) -> Printf.sprintf ",%S:%d" k v) s.attrs)))
      (List.rev !all);
    output_string oc "\n]}\n";
    close_out oc
end

(* ---- failure accounting ----------------------------------------------- *)

(* Attempted units are kernel runs, offered requests, and the cross-checks
   (a repeated input, a traced repeat, an engine probe): each counts once. *)
let attempted = ref 0
let failed = ref 0
let problems = ref []

let fail n msg =
  failed := !failed + n;
  problems := msg :: !problems

let cross_check ok msg =
  incr attempted;
  if not ok then fail 1 msg

(* ---- one operation: set up, run, check -------------------------------- *)

(* What a finished open-loop socket reports. *)
type net = {
  completed : int;
  dropped : int;
  timed_out : int;
  last_close : int;
  achieved_rps : float;
  queue_peak : int;
  in_flight_peak : int;
}

type op = {
  kernel : string;
  run_ns : int;  (** raw host ns of [Runner.run] *)
  ref_ns : int;  (** the reference loop, mean of just before and just after *)
  r : R.result;
  net : net option;
}

let net_of io =
  {
    completed = Netsim.completed io;
    dropped = Netsim.dropped io;
    timed_out = Netsim.timed_out io;
    last_close = Netsim.last_completion io;
    achieved_rps = Netsim.achieved_load io;
    queue_peak = Netsim.queue_peak io;
    in_flight_peak = Netsim.in_flight_peak io;
  }

(* Keep only plain data, so a finished run's VM can be collected: the
   abort-site table holds a resolver closing over the VM, and a socket
   holds the runner through its close hook. *)
let detach (r : R.result) =
  let metrics = Obs.Metrics.create () in
  Obs.Metrics.merge metrics r.R.metrics;
  { r with R.metrics; abort_sites = Obs.Sites.create (); output = "";
           main_value = Rvm.Value.VNil }

let open_io spec (wl : Workloads.Workload.t) ~seed =
  match (spec.kind, wl.make_io_open) with
  | Rails_open, Some f ->
      Some
        (f ~clients:spec.threads ~requests:rails_requests
           ~arrivals:(Netsim.Poisson { rate = rails_rate; seed })
           ~mix:wl.mix)
  | Rails_open, None -> invalid_arg "perfbench: rails has no open-loop socket"
  | Npb _, _ -> None

let setup spec k ~seed =
  let wl = workload k in
  let source = wl.source ~threads:spec.threads ~size in
  Spans.within "setup" (fun () ->
      (* a standalone compile of what [Runner.create] compiles, to time the
         compiler on its own *)
      if !Spans.on then
        Spans.within "rvm.compile" (fun () ->
            ignore (Rvm.Compiler.compile_string (Rvm.Prelude.source ^ "\n" ^ source)));
      let t0 = now_ns () in
      let io = Spans.within "netsim.schedule" (fun () -> open_io spec wl ~seed) in
      let t =
        Spans.within "core.create" (fun () ->
            R.create ?io (R.config ~scheme:spec.scheme spec.machine) ~source)
      in
      Spans.within "workloads.setup" (fun () -> wl.setup io t.R.vm);
      (t, io, now_ns () - t0))

let slices (r : R.result) =
  (Obs.Metrics.histogram r.R.metrics "sched.slice_insns").Obs.Metrics.n

let counters (r : R.result) =
  [
    ("insns", r.R.total_insns);
    ("slices", slices r);
    ("htm_begins", r.R.htm_stats.Stats.begins);
    ("htm_aborts", Stats.aborts r.R.htm_stats);
    ("stm_begins", r.R.stm_stats.Stm.begins);
    ("gc_runs", r.R.gc_runs);
    ("requests", r.R.requests_completed);
  ]

(* The traced run: [Runner.advance] over fixed virtual-time horizons, one
   span per chunk carrying the counter deltas of [Runner.snapshot]. *)
let run_chunked ~stop t =
  let rec go until prev =
    let res, cur =
      Spans.within "core.advance"
        ~attrs:(fun (_, cur) -> List.map2 (fun (k, a) (_, b) -> (k, a - b)) cur prev)
        (fun () ->
          match R.advance ~stop t ~until with
          | `Done r -> (Some r, counters r)
          | `Paused -> (None, counters (R.snapshot t)))
    in
    match res with Some r -> r | None -> go (until + horizon) cur
  in
  go horizon (counters (R.snapshot t))

let run t io =
  let stop =
    match io with Some io -> fun () -> Netsim.done_all io | None -> fun () -> false
  in
  if !Spans.on then Spans.within "run" (fun () -> run_chunked ~stop t)
  else R.run ~stop t

(* Count one finished operation's units and the ones that failed. *)
let check spec k (r : R.result) io =
  match (spec.kind, io) with
  | Npb _, _ ->
      attempted := !attempted + 1;
      let want = Printf.sprintf "%s verify %d" (String.uppercase_ascii k)
          (List.assoc k checksums) in
      if not (List.mem want (String.split_on_char '\n' r.R.output)) then
        fail 1 (Printf.sprintf "%s: checksum line %S missing from output" k want)
  | Rails_open, Some io ->
      attempted := !attempted + rails_requests;
      let c = Netsim.completed io and d = Netsim.dropped io
      and o = Netsim.timed_out io in
      if c + d + o <> rails_requests then
        fail (rails_requests - c)
          (Printf.sprintf "rails: completed %d + dropped %d + timed out %d <> offered %d"
             c d o rails_requests)
      else if d + o > 0 then
        fail (d + o) (Printf.sprintf "rails: %d dropped, %d timed out" d o)
  | Rails_open, None -> assert false

(* The timed run starts after a finished major cycle, as in a fresh
   process, so it pays for its own garbage and not for what set-up and
   earlier runs left. *)
let one_op spec k ~seed =
  let t, io, _ = setup spec k ~seed in
  Gc.major ();
  let ref_before = reference () in
  let t0 = now_ns () in
  match run t io with
  | r ->
      let run_ns = now_ns () - t0 in
      let ref_ns = (ref_before + reference ()) / 2 in
      Rvm.Vm.release t.R.vm;
      check spec k r io;
      Some { kernel = k; run_ns; ref_ns; r = detach r; net = Option.map net_of io }
  | exception (R.Stuck msg | R.Guest_failure msg) ->
      Rvm.Vm.release t.R.vm;
      let units = match spec.kind with Npb _ -> 1 | Rails_open -> rails_requests in
      attempted := !attempted + units;
      fail units (Printf.sprintf "%s: %s" k msg);
      None

(* The sim counters a repeat of the same inputs must reproduce exactly. The
   slice count is left out: it counts host scheduling turns, and a traced
   run's [Runner.advance] horizon may split a run-ahead slice in two
   without changing the executed instruction sequence. *)
let signature (o : op) =
  let r = o.r in
  [
    r.R.wall_cycles; r.R.total_insns; r.R.htm_stats.Stats.begins;
    Stats.aborts r.R.htm_stats; r.R.htm_stats.Stats.txn_accesses;
    r.R.stm_stats.Stm.begins; r.R.stm_stats.Stm.commits; r.R.gc_runs;
    r.R.allocs; r.R.gil_acquisitions; r.R.requests_completed;
    (match o.net with Some n -> n.last_close | None -> 0);
  ]

let compare_ops what (a : op list) (b : op list) =
  if List.length a = List.length b then
    List.iter2
      (fun (x : op) (y : op) ->
        cross_check (signature x = signature y)
          (Printf.sprintf "%s: %s sim counters differ" x.kernel what))
      a b

(* ---- statistics ------------------------------------------------------- *)

let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fl = float_of_int

(* Every within-run summary is the interquartile mean: the mean of the
   middle half of the sorted samples. It is as robust as the median to a
   stray slow iteration; over ten rails-open runs on the shared host, its
   run time spread across runs half as much as the median's. *)
let central l =
  let s = List.sort compare l in
  let n = List.length s and k = List.length s / 4 in
  let mid = List.filteri (fun i _ -> i >= k && i < n - k) s in
  if mid = [] then nan else List.fold_left ( +. ) 0.0 mid /. fl (List.length mid)

(* Nearest-rank quantile of exact samples. *)
let quantile_exact q l =
  match List.sort compare l with
  | [] -> 0
  | s ->
      let n = List.length s in
      let rank = max 1 (min n (int_of_float (ceil (q *. fl n)))) in
      List.nth s (rank - 1)

(* Quantile of a log-linear histogram, interpolated linearly inside the
   bucket that holds the rank (the registry's own estimate answers the
   bucket's upper bound, which moves in 1/16 steps). *)
let quantile_hist (h : Obs.Metrics.histogram) q =
  if h.Obs.Metrics.n = 0 then 0.0
  else begin
    let rank = max 1.0 (q *. fl h.Obs.Metrics.n) in
    let rec go i cum =
      let c = h.Obs.Metrics.buckets.(i) in
      if fl (cum + c) >= rank || i = Obs.Metrics.n_buckets - 1 then begin
        let lo = if i = 0 then 0 else Obs.Metrics.bucket_le (i - 1) + 1 in
        let hi = min (Obs.Metrics.bucket_le i) h.Obs.Metrics.max_v in
        let lo = max lo h.Obs.Metrics.min_v in
        let frac = if c = 0 then 1.0 else (rank -. fl cum) /. fl c in
        fl lo +. (frac *. fl (max 0 (hi - lo)))
      end
      else go (i + 1) (cum + c)
    in
    go 0 0
  end

(* ---- engine probes ---------------------------------------------------- *)

(* Host ns per access of one transaction of [rs] read lines and [ws]
   written lines, driven straight into the engine on a private store;
   begin/commit costs are spread over the accesses. *)
let probe ~machine ~rs ~ws ~txn =
  let lc = machine.Machine.line_cells in
  let store = Store.create ~dummy:0 ~line_cells:lc 1024 in
  let base = Store.reserve_aligned store ((rs + ws) * lc) in
  let htm = Htm.create machine store in
  Htm.set_occupied htm 0 true;
  let run_txn = txn htm in
  let per_round = max 1 (20_000 / (rs + ws)) in
  let round () =
    let t0 = now_ns () in
    for _ = 1 to per_round do
      run_txn ~base ~lc ~rs ~ws
    done;
    fl (now_ns () - t0) /. fl (per_round * (rs + ws))
  in
  ignore (round ());
  let ns = central (List.init 15 (fun _ -> round ())) in
  (ns, htm)

let htm_probe machine ~rs ~ws =
  let rollback _ = () in
  let ns, htm =
    probe ~machine ~rs ~ws ~txn:(fun htm ~base ~lc ~rs ~ws ->
        Htm.tbegin htm ~ctx:0 ~rollback;
        for j = 0 to rs - 1 do
          ignore (Htm.read htm ~ctx:0 (base + (j * lc)))
        done;
        for j = 0 to ws - 1 do
          Htm.write htm ~ctx:0 (base + ((rs + j) * lc)) j
        done;
        Htm.tend htm ~ctx:0)
  in
  let s = Htm.stats htm in
  cross_check (s.Stats.commits = s.Stats.begins)
    (Printf.sprintf "htm probe: %d of %d transactions aborted"
       (s.Stats.begins - s.Stats.commits) s.Stats.begins);
  ns

let stm_probe machine ~rs ~ws =
  let rollback _ = () in
  let stm = ref None in
  let ns, _ =
    probe ~machine ~rs ~ws ~txn:(fun htm ->
        let s = Stm.create ~mk_clock:(fun n -> n) htm in
        stm := Some s;
        let stm = s in
        fun ~base ~lc ~rs ~ws ->
          Stm.begin_ stm ~ctx:0 ~rollback;
          for j = 0 to rs - 1 do
            ignore (Htm.read htm ~ctx:0 (base + (j * lc)))
          done;
          for j = 0 to ws - 1 do
            Htm.write htm ~ctx:0 (base + ((rs + j) * lc)) j
          done;
          if Stm.validate stm ~ctx:0 >= 0 then
            Stm.abort stm ~ctx:0 Txn.Validation
          else Stm.commit stm ~ctx:0)
  in
  let s = Stm.stats (Option.get !stm) in
  cross_check (s.Stm.commits = s.Stm.begins)
    (Printf.sprintf "stm probe: %d of %d transactions aborted"
       (s.Stm.begins - s.Stm.commits) s.Stm.begins);
  ns

(* ---- the run ---------------------------------------------------------- *)

type iteration = { index : int; schedule : int; ops : op list }

(* Set-up alone, [setup_reps] times (traced as iterations -1, -2, ...):
   each rep follows another bare set-up, so none pays for refilling a store
   a finished run dirtied. Then iterations until [seconds] have passed, at
   least [min_iterations] after iteration 0, which warms the recycled store
   backing up to its grown size and is left out of the host figures. *)
let iterate spec ~seed ~seconds ~trace =
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  Spans.on := trace;
  let setup_samples =
    List.init setup_reps (fun j ->
        Spans.iter := -(j + 1);
        let ref_before = reference () in
        let ns =
          sum_by
            (fun k ->
              let t, _, ns = setup spec k ~seed:(sub_seed seed (j mod schedules spec)) in
              Rvm.Vm.release t.R.vm;
              ns)
            (kernels spec)
        in
        (ns, (ref_before + reference ()) / 2))
  in
  Spans.on := false;
  let plain = ref [] and traced = ref [] in
  let first = Hashtbl.create 4 in
  let i = ref 0 in
  while !i <= max min_iterations (schedules spec - 1) || now_ns () < deadline do
    let schedule = !i mod schedules spec in
    let ops_of () =
      List.filter_map (fun k -> one_op spec k ~seed:(sub_seed seed schedule)) (kernels spec)
    in
    let ops = ops_of () in
    (match Hashtbl.find_opt first schedule with
    | None -> Hashtbl.add first schedule ops
    | Some ops0 -> compare_ops "repeated schedule" ops0 ops);
    plain := { index = !i; schedule; ops } :: !plain;
    if trace && !i <= traced_iterations then begin
      Spans.on := true;
      Spans.iter := !i;
      let tops = ops_of () in
      Spans.on := false;
      compare_ops "traced run" ops tops;
      traced := { index = !i; schedule; ops = tops } :: !traced
    end;
    incr i
  done;
  (setup_samples, List.rev !plain, List.rev !traced)

(* ---- metrics ---------------------------------------------------------- *)

let iter_run_ns it =
  List.fold_left (fun acc o -> acc +. nominal ~ref_ns:o.ref_ns o.run_ns) 0.0 it.ops
let iter_insns it = sum_by (fun o -> o.r.R.total_insns) it.ops

(* The first [schedules spec] iterations: one per distinct input. *)
let sim_iters spec plain = List.filter (fun it -> it.index < schedules spec) plain

(* Host timings leave out the warm-up iteration. *)
let host_iters its = List.filter (fun it -> it.index > 0) its

let pooled_registry ops =
  let reg = Obs.Metrics.create () in
  List.iter (fun o -> Obs.Metrics.merge reg o.r.R.metrics) ops;
  reg

let end_to_end spec ~setup_samples ~plain =
  let sims = sim_iters spec plain in
  let sim_ops = List.concat_map (fun it -> it.ops) sims in
  let host = host_iters plain in
  let run_s = central (List.map (fun it -> iter_run_ns it /. 1e9) host) in
  let ns_insn =
    central (List.map (fun it -> iter_run_ns it /. fl (iter_insns it)) host)
  in
  let setup_s =
    central (List.map (fun (ns, ref_ns) -> nominal ~ref_ns ns /. 1e9) setup_samples)
  in
  let raw f = central (List.map f host) in
  Printf.printf
    "host: reference loop %.2f ms for %d steps; raw run_s %.4f s, \
     raw setup_s %.4f s\n"
    (central (List.map fl !refs) /. 1e6) ref_iters
    (raw (fun it -> fl (sum_by (fun o -> o.run_ns) it.ops)) /. 1e9)
    (central (List.map (fun (ns, _) -> fl ns) setup_samples) /. 1e9);
  let heap_mb =
    fl ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let sim_mcycles, p50, p99, rate =
    match spec.kind with
    | Npb _ ->
        (* a closed-loop operation is one kernel run, timed from its start *)
        let lat = List.map (fun o -> o.r.R.wall_cycles) sim_ops in
        let span = central (List.map (fun it -> fl (sum_by (fun o -> o.r.R.wall_cycles) it.ops)) sims) in
        ( span /. 1e6,
          fl (quantile_exact 0.50 lat),
          fl (quantile_exact 0.99 lat),
          fl (List.length lat) *. 1e9 /. fl (sum_by (fun o -> o.r.R.wall_cycles) sim_ops) )
    | Rails_open ->
        (* each figure summarizes the arrival schedules' own: a pooled p99
           follows the one schedule with the worst burst *)
        let over_schedules f = central (List.map f sim_ops) in
        let lat o q = quantile_hist (Obs.Metrics.histogram o.r.R.metrics "req.latency_cycles") q in
        let net o = Option.get o.net in
        ( over_schedules (fun o -> fl (net o).last_close) /. 1e6,
          over_schedules (fun o -> lat o 0.50),
          over_schedules (fun o -> lat o 0.99),
          over_schedules (fun o -> (net o).achieved_rps) )
  in
  [
    ("setup_s", setup_s, "s");
    ("run_s", run_s, "s");
    ("host_ns_per_insn", ns_insn, "ns");
    ("host_heap_mb", heap_mb, "MB");
    ("sim_mcycles", sim_mcycles, "Mcycle");
    ("sim_p50_kcycles", p50 /. 1e3, "kcycle");
    ("sim_p99_kcycles", p99 /. 1e3, "kcycle");
    ("sim_achieved_rps", rate, "op/s");
  ]

let per_layer spec ~plain ~traced =
  let sims = sim_iters spec plain in
  let ops = List.concat_map (fun it -> it.ops) sims in
  let n = fl (List.length sims) in
  let per_iter f = fl (sum_by f ops) /. n in
  let reg = pooled_registry ops in
  let counter name = (Obs.Metrics.counter reg name).Obs.Metrics.count in
  let hist name = Obs.Metrics.histogram reg name in
  let gauge name = (Obs.Metrics.gauge reg name).Obs.Metrics.value in
  let htm = Stats.create () in
  List.iter (fun o -> Stats.merge htm o.r.R.htm_stats) ops;
  let stm f = sum_by (fun o -> f o.r.R.stm_stats) ops in
  let bd f = sum_by (fun o -> f o.r.R.breakdown) ops in
  let bd_total =
    bd (fun b ->
        b.R.bd_txn_overhead + b.R.bd_committed + b.R.bd_aborted + b.R.bd_gil_held
        + b.R.bd_gil_wait + b.R.bd_other)
  in
  let share f = ratio (bd f) bd_total in
  (* set-up layers from the bare set-ups, like setup_s; span and probe times
     at nominal speed through the run's typical reference *)
  let scale = fl ref_iters /. central (List.map fl !refs) in
  let span_ms name =
    scale *. central (Spans.totals name ~iter:(fun i -> i < 0)) /. 1e6
  in
  (* each traced iteration against the plain one it repeats *)
  let trace_overhead =
    central
      (List.map
         (fun t ->
           let p = List.find (fun p -> p.index = t.index) plain in
           (iter_run_ns t /. iter_run_ns p) -. 1.0)
         (host_iters traced))
  in
  let mean_over_ops f =
    List.fold_left (fun acc o -> acc +. f o.r) 0.0 ops /. fl (max 1 (List.length ops))
  in
  (* probe footprints: the workload's own mean read/write sets, rounded *)
  let lines x = max 1 (int_of_float (Float.round x)) in
  let htm_rs = Stats.mean_rs htm and htm_ws = Stats.mean_ws htm in
  let stm_commits = stm (fun s -> s.Stm.commits) in
  let stm_rs, stm_ws =
    if stm_commits > 0 then
      (ratio (stm (fun s -> s.Stm.rs_total)) stm_commits,
       ratio (stm (fun s -> s.Stm.ws_total)) stm_commits)
    else (htm_rs, htm_ws)
  in
  let netsim f = per_iter (fun o -> match o.net with Some n -> f n | None -> 0) in
  let peak f = fl (List.fold_left (fun m o -> match o.net with Some n -> max m (f n) | None -> m) 0 ops) in
  [
    ("rvm.compile_ms", span_ms "rvm.compile", "ms");
    ("core.create_ms", span_ms "core.create", "ms");
    ("workloads.setup_ms", span_ms "workloads.setup", "ms");
    ("netsim.schedule_ms", span_ms "netsim.schedule", "ms");
    ("rvm.insns", per_iter (fun o -> o.r.R.total_insns), "count");
    ( "rvm.method_cache_hit_ratio",
      ratio (counter "interp.method_cache_hits")
        (counter "interp.method_cache_hits" + counter "interp.method_cache_misses"),
      "ratio" );
    ("rvm.allocs", per_iter (fun o -> o.r.R.allocs), "count");
    ("rvm.gc_runs", per_iter (fun o -> o.r.R.gc_runs), "count");
    ("rvm.gc_pause_cycles", fl (hist "gc.pause_cycles").Obs.Metrics.sum /. n, "cycles");
    ("core.slices", per_iter (fun o -> slices o.r), "count");
    ("core.slice_insns_mean", Obs.Metrics.mean (hist "sched.slice_insns"), "insns");
    ( "core.host_ns_per_slice",
      central
        (List.map
           (fun it -> iter_run_ns it /. fl (sum_by (fun o -> slices o.r) it.ops))
           (host_iters plain)),
      "ns" );
    ("core.runnable_peak", fl (gauge "sched.runnable_peak"), "threads");
    ("core.gil_acquisitions", per_iter (fun o -> o.r.R.gil_acquisitions), "count");
    ("core.gil_wait_cycles", fl (bd (fun b -> b.R.bd_gil_wait)) /. n, "cycles");
    ("core.gil_wait_p99_cycles", quantile_hist (hist "gil.wait_cycles") 0.99, "cycles");
    ("core.share.txn_overhead", share (fun b -> b.R.bd_txn_overhead), "ratio");
    ("core.share.committed", share (fun b -> b.R.bd_committed), "ratio");
    ("core.share.aborted", share (fun b -> b.R.bd_aborted), "ratio");
    ("core.share.gil_held", share (fun b -> b.R.bd_gil_held), "ratio");
    ("core.share.gil_wait", share (fun b -> b.R.bd_gil_wait), "ratio");
    ("core.txlen_mean", mean_over_ops (fun r -> r.R.txlen_mean), "insns");
    ("core.txlen_at_one_share", mean_over_ops (fun r -> r.R.txlen_at_one), "ratio");
    ("core.fallback_gil", fl (counter "fallback.gil") /. n, "count");
    ("core.fallback_stm", fl (counter "fallback.stm") /. n, "count");
    ("htm_sim.begins", fl htm.Stats.begins /. n, "count");
    ("htm_sim.commit_ratio", ratio htm.Stats.commits htm.Stats.begins, "ratio");
    ("htm_sim.aborts_conflict", fl htm.Stats.aborts_conflict /. n, "count");
    ( "htm_sim.aborts_overflow",
      fl (htm.Stats.aborts_overflow_read + htm.Stats.aborts_overflow_write) /. n,
      "count" );
    ("htm_sim.aborts_explicit", fl htm.Stats.aborts_explicit /. n, "count");
    ("htm_sim.aborts_gil_word", fl (counter "abort.gil_word") /. n, "count");
    ("htm_sim.txn_accesses", fl htm.Stats.txn_accesses /. n, "count");
    ("htm_sim.nontxn_accesses", fl htm.Stats.non_txn_accesses /. n, "count");
    ("htm_sim.rs_mean_lines", htm_rs, "lines");
    ("htm_sim.ws_mean_lines", htm_ws, "lines");
    ("htm_sim.retries_per_window_mean", Obs.Metrics.mean (hist "txn.retries_per_window"), "count");
    ( "htm_sim.probe_ns_per_access",
      scale *. htm_probe spec.machine ~rs:(lines htm_rs) ~ws:(lines htm_ws),
      "ns" );
    ("stm.begins", fl (stm (fun s -> s.Stm.begins)) /. n, "count");
    ("stm.commit_ratio", ratio stm_commits (stm (fun s -> s.Stm.begins)), "ratio");
    ("stm.aborts_validation", fl (stm (fun s -> s.Stm.aborts_validation)) /. n, "count");
    ("stm.accesses", fl (stm (fun s -> s.Stm.accesses)) /. n, "count");
    ("tm_clock.bumps", fl (counter "clock.bumps") /. n, "count");
    ("tm_clock.kills", fl (counter "abort.stm_clock") /. n, "count");
    ( "stm.probe_ns_per_access",
      scale *. stm_probe spec.machine ~rs:(lines stm_rs) ~ws:(lines stm_ws),
      "ns" );
    ("netsim.offered", netsim (fun _ -> rails_requests), "count");
    ("netsim.completed", netsim (fun n -> n.completed), "count");
    ("netsim.dropped", netsim (fun n -> n.dropped), "count");
    ("netsim.timed_out", netsim (fun n -> n.timed_out), "count");
    ("netsim.queue_peak", peak (fun n -> n.queue_peak), "count");
    ("netsim.in_flight_peak", peak (fun n -> n.in_flight_peak), "count");
    ("netsim.queue_p99_kcycles", quantile_hist (hist "req.queue_cycles") 0.99 /. 1e3, "kcycle");
    ("netsim.service_p99_kcycles", quantile_hist (hist "req.service_cycles") 0.99 /. 1e3, "kcycle");
    ("obs.trace_overhead_pct", trace_overhead *. 100.0, "%");
  ]

(* The paper's Fig 5 speedups at 12 threads on zEC12 (class S), against
   the simulated class W ratio of the GIL-1 and HTM-dynamic-12 runs. *)
let paper_speedup = [ ("bt", 3.3); ("cg", 1.9) ]

let accuracy_line ~htm_ops =
  let gil = List.find (fun s -> s.name = "npb-gil1") specs in
  List.iter
    (fun (o : op) ->
      let base, _, _ = setup gil o.kernel ~seed:0 in
      let r = R.run base in
      Rvm.Vm.release base.R.vm;
      let sim = fl r.R.wall_cycles /. fl o.r.R.wall_cycles in
      let paper = List.assoc o.kernel paper_speedup in
      Printf.printf
        "accuracy %s: simulated speedup %.2fx (gil1 %.3f / htm12 %.3f Mcycle, class W) vs \
         paper Fig 5 %.1fx (class S); relative error %+.0f%%\n"
        o.kernel sim (fl r.R.wall_cycles /. 1e6) (fl o.r.R.wall_cycles /. 1e6) paper
        ((sim /. paper -. 1.0) *. 100.0))
    htm_ops;
  print_endline
    "accuracy: not gated; apart from these two ratios the cost model is unvalidated \
     against hardware"

(* ---- output ----------------------------------------------------------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let ok = !failed = 0 in
  List.iter (fun (name, v, unit) -> Printf.printf "metric %-32s %.6g %s\n" name v unit) metrics;
  Printf.printf "fail_share %.6g (%d failed of %d attempted)\n"
    (ratio !failed (max 1 !attempted)) !failed !attempted;
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) (List.rev !problems);
  let fields =
    List.filter_map
      (fun (name, v, unit) ->
        if Float.is_finite v then
          Some (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
        else None)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    ok (max 1 !attempted) !failed (String.concat ", " fields);
  exit (if ok then 0 else 1)

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload npb-htm12|npb-gil1|rails-open --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage ("missing --" ^ k) in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage ("--" ^ k ^ " wants an integer") in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then usage ("unknown option --" ^ k))
    kv;
  (match List.filter (fun v -> Sys.getenv_opt v <> None) refused_env with
  | [] -> ()
  | set ->
      usage
        (Printf.sprintf "refusing to run with %s set: the benchmark measures the defaults"
           (String.concat ", " set)));
  let spec =
    match List.find_opt (fun s -> s.name = get "workload") specs with
    | Some s -> s
    | None -> usage ("unknown workload " ^ get "workload")
  in
  let seed = int "seed" and seconds = int "seconds" in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage "--trace wants 0 or 1"
  in
  if seconds < 1 then usage "--seconds wants a positive integer";
  Printf.printf "perfbench %s: %s; seed %d%s; %d s; trace %d\n" spec.name spec.describe seed
    (match spec.kind with
    | Npb _ -> " (recorded, no effect: the NPB inputs are fixed)"
    | Rails_open -> Printf.sprintf " (drives %d arrival schedules and mix draws)" (schedules spec))
    seconds (Bool.to_int trace);
  let setup_samples, plain, traced = iterate spec ~seed ~seconds ~trace in
  Printf.printf "iterations: %d plain%s, %d set-ups alone\n" (List.length plain)
    (if trace then Printf.sprintf ", %d traced" (List.length traced) else "")
    setup_reps;
  let metrics =
    if trace then begin
      let m = per_layer spec ~plain ~traced in
      let dir = Filename.concat "perfbench" "_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" spec.name seed) in
      Spans.write path;
      Printf.printf "spans: %d written to %s\n" (List.length !Spans.all) path;
      m
    end
    else begin
      let m = end_to_end spec ~setup_samples ~plain in
      (match (spec.kind, plain) with
      | Npb _, first :: _ when spec.scheme <> Core.Scheme.Gil_only ->
          accuracy_line ~htm_ops:first.ops
      | _ -> ());
      m
    end
  in
  print_result metrics
