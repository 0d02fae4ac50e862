(* The event-driven scheduler: unit tests of the indexed min-heap, and
   differential runs pinning the heap + run-ahead scheduler to the
   reference linear scan — same interleaving, same figures. *)

module Sched = Core.Sched
module V = Rvm.Vmthread

let drain t =
  let rec go acc =
    if Sched.is_empty t then List.rev acc else go (Sched.pop_min t :: acc)
  in
  go []

let test_pop_order () =
  let t = Sched.create () in
  Alcotest.(check bool) "fresh heap empty" true (Sched.is_empty t);
  Alcotest.(check int) "empty min_key" max_int (Sched.min_key t);
  Alcotest.(check bool) "empty: nothing precedes" false
    (Sched.min_precedes t ~key:min_int ~tid:max_int);
  (* out-of-order keys, including a (clock, tid) tie at 5 *)
  List.iter
    (fun (k, tid) -> Sched.push t ~key:k tid)
    [ (5, 3); (1, 2); (5, 1); (0, 4); (3, 0) ];
  Alcotest.(check int) "size" 5 (Sched.size t);
  Alcotest.(check int) "min_key" 0 (Sched.min_key t);
  Alcotest.(check bool) "root (0, 4) precedes (0, 3)" true
    (Sched.min_precedes t ~key:0 ~tid:3);
  Alcotest.(check bool) "root (0, 4) not before itself" false
    (Sched.min_precedes t ~key:0 ~tid:4);
  Alcotest.(check bool) "root (0, 4) not before (-1, 9)" false
    (Sched.min_precedes t ~key:(-1) ~tid:9);
  (* equal keys break toward the HIGHER tid, like the reference scan *)
  Alcotest.(check (list int)) "(key, tid desc) order" [ 4; 2; 0; 3; 1 ] (drain t);
  Alcotest.(check bool) "drained empty" true (Sched.is_empty t)

let test_rekey () =
  let t = Sched.create () in
  Sched.push t ~key:10 1;
  Sched.push t ~key:20 2;
  Sched.push t ~key:30 3;
  (* re-push = re-key, both directions, without growing the heap *)
  Sched.push t ~key:5 2;
  Sched.push t ~key:40 1;
  Alcotest.(check int) "size unchanged" 3 (Sched.size t);
  Alcotest.(check (list int)) "re-keyed order" [ 2; 3; 1 ] (drain t)

let test_mem_remove () =
  let t = Sched.create () in
  List.iter (fun tid -> Sched.push t ~key:tid tid) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "mem present" true (Sched.mem t 3);
  Alcotest.(check bool) "mem absent" false (Sched.mem t 9);
  Sched.remove t 3;
  Sched.remove t 1;
  Sched.remove t 42 (* no-op *);
  Alcotest.(check bool) "removed" false (Sched.mem t 3);
  Alcotest.(check int) "size after removes" 3 (Sched.size t);
  Alcotest.(check (list int)) "order after removes" [ 2; 4; 5 ] (drain t);
  Sched.push t ~key:7 1;
  Alcotest.(check (list int)) "reusable after drain" [ 1 ] (drain t)

let test_pop_min_empty () =
  let t = Sched.create () in
  Alcotest.check_raises "pop_min on an empty heap"
    (Invalid_argument "Sched.pop_min: empty heap") (fun () ->
      ignore (Sched.pop_min t))

let test_push_pop () =
  let t = Sched.create () in
  (* empty heap: the pushed tid comes straight back, heap untouched *)
  Alcotest.(check int) "empty: returns itself" 2 (Sched.push_pop t ~key:7 2);
  Alcotest.(check bool) "empty: stays empty" true (Sched.is_empty t);
  Sched.push t ~key:10 1;
  Sched.push t ~key:20 3;
  (* strict minimum: itself, nothing moves *)
  Alcotest.(check int) "strict min: itself" 2 (Sched.push_pop t ~key:5 2);
  Alcotest.(check bool) "strict min: not inserted" false (Sched.mem t 2);
  (* key tie with the root, larger tid: still itself *)
  Alcotest.(check int) "tie, larger tid: itself" 2 (Sched.push_pop t ~key:10 2);
  Alcotest.(check int) "tie: size unchanged" 2 (Sched.size t);
  (* key tie with the root, smaller tid: the root wins and [tid] goes in *)
  Alcotest.(check int) "tie, smaller tid: root" 1 (Sched.push_pop t ~key:10 0);
  Alcotest.(check bool) "root left" false (Sched.mem t 1);
  Alcotest.(check bool) "pushed tid in" true (Sched.mem t 0);
  (* larger key: the root comes out, [tid] sifts into place *)
  Alcotest.(check int) "larger key: root" 0 (Sched.push_pop t ~key:30 2);
  Alcotest.(check (list int)) "replaced order" [ 3; 2 ] (drain t);
  (* a tid already present is re-keyed first, then the minimum pops *)
  Sched.push t ~key:10 1;
  Sched.push t ~key:20 3;
  Alcotest.(check int) "re-key down: itself" 3 (Sched.push_pop t ~key:5 3);
  Alcotest.(check bool) "re-keyed tid popped" false (Sched.mem t 3);
  Sched.push t ~key:20 3;
  Alcotest.(check int) "re-key up: new root" 3 (Sched.push_pop t ~key:40 1);
  Alcotest.(check int) "re-key up: size" 1 (Sched.size t);
  Alcotest.(check int) "re-key up: key kept" 40 (Sched.min_key t);
  Alcotest.(check (list int)) "re-keyed order" [ 1 ] (drain t)

(* The packed key: (key, tid) share one int, so equal keys must still
   break toward the higher tid, tids past 64 (a thread per request) must
   order like small ones, and values the packing cannot hold must be
   refused rather than wrap. *)
let test_packed_ties () =
  let t = Sched.create () in
  List.iter (fun tid -> Sched.push t ~key:7 tid) [ 3; 0; 9; 5 ];
  Alcotest.(check bool) "(7, 9) precedes (7, 8)" true
    (Sched.min_precedes t ~key:7 ~tid:8);
  Alcotest.(check bool) "(7, 9) does not precede (7, 10)" false
    (Sched.min_precedes t ~key:7 ~tid:10);
  Alcotest.(check int) "tie keeps the key" 7 (Sched.min_key t);
  Alcotest.(check (list int)) "equal keys: tid descending" [ 9; 5; 3; 0 ]
    (drain t)

let test_packed_large_tids () =
  let t = Sched.create () in
  List.iter
    (fun (k, tid) -> Sched.push t ~key:k tid)
    [ (40, 65); (40, 1000); (39, 70); (41, 3); (40, 64); (40, Sched.max_tid) ];
  Alcotest.(check bool) "mem tid 1000" true (Sched.mem t 1000);
  Alcotest.(check int) "smaller key first" 70 (Sched.push_pop t ~key:40 66);
  Alcotest.(check (list int)) "(key, tid desc) across tids > 64"
    [ Sched.max_tid; 1000; 66; 65; 64; 3 ] (drain t);
  Sched.push t ~key:Sched.max_key 2;
  Alcotest.(check int) "largest key round-trips" Sched.max_key (Sched.min_key t)

let test_packed_bounds () =
  let t = Sched.create () in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "tid past max_tid" (fun () -> Sched.push t ~key:0 (Sched.max_tid + 1));
  refused "negative tid" (fun () -> Sched.push t ~key:0 (-1));
  refused "key past max_key" (fun () -> Sched.push t ~key:(Sched.max_key + 1) 1);
  refused "negative key" (fun () -> Sched.push t ~key:(-1) 1);
  refused "push_pop tid past max_tid" (fun () ->
      ignore (Sched.push_pop t ~key:0 (Sched.max_tid + 1)));
  Alcotest.(check bool) "nothing inserted" true (Sched.is_empty t);
  Alcotest.check_raises "message names the range"
    (Invalid_argument
       (Printf.sprintf "Sched.push: tid %d outside [0, %d]" (Sched.max_tid + 1)
          Sched.max_tid)) (fun () -> Sched.push t ~key:0 (Sched.max_tid + 1))

(* Random push/re-key/remove/pop_min/push_pop traffic against a
   sorted-list model. *)
let test_randomized_vs_model =
  let gen =
    QCheck.(list (triple (int_bound 4) (int_bound 50) (int_bound 19)))
  in
  Tutil.qtest "heap agrees with sorted model" ~count:300 gen (fun ops ->
      let t = Sched.create () in
      let model = Hashtbl.create 16 in
      let sorted () =
        Hashtbl.fold (fun tid key acc -> (key, tid) :: acc) model []
        |> List.sort (fun (k1, t1) (k2, t2) ->
               if k1 <> k2 then compare k1 k2 else compare t2 t1)
        |> List.map snd
      in
      let model_pop () =
        match sorted () with
        | tid :: _ ->
            Hashtbl.remove model tid;
            tid
        | [] -> assert false
      in
      let ok = ref true in
      List.iter
        (fun (op, key, tid) ->
          match op with
          | 0 ->
              Sched.remove t tid;
              Hashtbl.remove model tid
          | 1 ->
              if Hashtbl.length model > 0 then
                let got = Sched.pop_min t in
                if got <> model_pop () then ok := false
          | 2 ->
              let got = Sched.push_pop t ~key tid in
              Hashtbl.replace model tid key;
              if got <> model_pop () then ok := false
          | _ ->
              Sched.push t ~key tid;
              Hashtbl.replace model tid key)
        ops;
      let expect = sorted () in
      !ok && Sched.size t = List.length expect && drain t = expect)

(* ---- differential: heap + run-ahead vs the reference linear scan ---- *)

let assert_same_run name (a : Core.Runner.result) (b : Core.Runner.result) =
  Alcotest.(check int) (name ^ ": wall_cycles") a.wall_cycles b.wall_cycles;
  Alcotest.(check int) (name ^ ": total_insns") a.total_insns b.total_insns;
  Alcotest.(check string) (name ^ ": output") a.output b.output;
  Alcotest.(check int)
    (name ^ ": gil acquisitions")
    a.gil_acquisitions b.gil_acquisitions;
  Alcotest.(check int)
    (name ^ ": txn begins")
    a.htm_stats.Htm_sim.Stats.begins b.htm_stats.Htm_sim.Stats.begins;
  Alcotest.(check int)
    (name ^ ": txn commits")
    a.htm_stats.Htm_sim.Stats.commits b.htm_stats.Htm_sim.Stats.commits;
  Alcotest.(check int)
    (name ^ ": requests completed")
    a.requests_completed b.requests_completed

let run_compute ~sched ~scheme (w : Workloads.Workload.t) ~threads =
  let source = w.Workloads.Workload.source ~threads ~size:Workloads.Size.Test in
  let cfg = Core.Runner.config ~scheme ~sched Htm_sim.Machine.zec12 in
  Core.Runner.run_source ~setup:(w.Workloads.Workload.setup None) cfg ~source

let test_diff_compute () =
  let workloads =
    Workloads.Workload.micro
    @ List.filter
        (fun (w : Workloads.Workload.t) -> w.name = "cg" || w.name = "is")
        Workloads.Workload.npb
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun scheme ->
          List.iter
            (fun threads ->
              let name =
                Printf.sprintf "%s/%s/%dT" w.name
                  (Core.Scheme.to_string scheme)
                  threads
              in
              let heap =
                run_compute ~sched:Core.Runner.Sched_heap ~scheme w ~threads
              and ref_ =
                run_compute ~sched:Core.Runner.Sched_ref ~scheme w ~threads
              in
              assert_same_run name heap ref_)
            [ 1; 2; 4 ])
        [ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic ])
    workloads

(* Twelve threads make the heap four levels deep, so sifts run through
   interior levels that the 1-4 thread grid never reaches. *)
let npb12 = [ "cg"; "bt" ]

let find_workload name = Option.get (Workloads.Workload.find name)

let test_diff_compute_12 () =
  List.iter
    (fun name ->
      let w = find_workload name in
      let scheme = Core.Scheme.Htm_dynamic in
      let run sched = run_compute ~sched ~scheme w ~threads:12 in
      let heap = run Core.Runner.Sched_heap
      and ref_ = run Core.Runner.Sched_ref in
      assert_same_run (name ^ "/htm-dynamic/12T") heap ref_)
    npb12

(* Horizon-chunked [advance] must reproduce [run] at 12 threads, and so
   must a run whose [stop] trips now and then and is resumed each time:
   every exit puts the slice's carried thread back in the heap. *)
let test_chunked_advance_12 () =
  let horizon = 2_000_000 in
  List.iter
    (fun name ->
      let w = find_workload name in
      let source =
        w.Workloads.Workload.source ~threads:12 ~size:Workloads.Size.Test
      in
      let cfg =
        Core.Runner.config ~scheme:Core.Scheme.Htm_dynamic
          Htm_sim.Machine.zec12
      in
      let fresh () =
        let t = Core.Runner.create cfg ~source in
        w.Workloads.Workload.setup None t.Core.Runner.vm;
        t
      in
      let full = Core.Runner.run (fresh ()) in
      let t = fresh () in
      let pauses = ref 0 in
      let rec go h =
        match Core.Runner.advance t ~until:h with
        | `Done r -> r
        | `Paused ->
            incr pauses;
            go (h + horizon)
      in
      let chunked = go horizon in
      Alcotest.(check bool)
        (name ^ ": paused at least once")
        true (!pauses > 0);
      assert_same_run (name ^ "/12T chunked") full chunked;
      let t = fresh () in
      let main = t.Core.Runner.session.Rvm.Session.main in
      let calls = ref 0 and stops = ref 0 in
      let stop () =
        incr calls;
        !calls mod 5_000 = 0
      in
      let rec resume () =
        match Core.Runner.advance ~stop t ~until:max_int with
        | `Done r when main.V.status = V.Finished -> r
        | `Done _ | `Paused ->
            incr stops;
            resume ()
      in
      let stopped = resume () in
      Alcotest.(check bool) (name ^ ": stopped at least once") true (!stops > 0);
      assert_same_run (name ^ "/12T stop+resume") full stopped)
    npb12

(* The server path exercises netsim delivery, sleepers and acceptors; the
   scheduler is selected through the BENCH_SCHED environment default, which
   also covers the smoke script's plumbing. Twelve clients keep several
   sleepers queued at once, so sleeper wakes pop through interior heap
   levels too. *)
let test_diff_server ~clients () =
  let w = Option.get (Workloads.Workload.find "webrick") in
  let run kind =
    Unix.putenv "BENCH_SCHED" (match kind with `Heap -> "heap" | `Ref -> "ref");
    Fun.protect
      ~finally:(fun () -> Unix.putenv "BENCH_SCHED" "")
      (fun () ->
        let o =
          Harness.Exp.run
            (Harness.Exp.point ~workload:w ~machine:Htm_sim.Machine.xeon_e3
               ~scheme:Core.Scheme.Htm_dynamic ~threads:clients
               ~size:Workloads.Size.Test ())
        in
        o.Harness.Exp.result)
  in
  let heap = run `Heap and ref_ = run `Ref in
  Alcotest.(check bool) "served requests" true (heap.requests_completed > 0);
  assert_same_run (Printf.sprintf "webrick/htm-dynamic/%dc" clients) heap ref_

(* A server that spawns a thread per request numbers its threads past
   64: the open-loop Rails socket with 100 requests, under the hybrid
   scheme, so sleepers, acceptors, software windows and the packed keys of
   tids above 64 all meet. *)
let test_diff_thread_per_request () =
  let w = Option.get (Workloads.Workload.find "rails") in
  let requests = 100 and threads = 4 in
  let run sched =
    let io =
      (Option.get w.Workloads.Workload.make_io_open)
        ~clients:threads ~requests
        ~arrivals:(Netsim.Poisson { rate = 4500.0; seed = 7 })
        ~mix:w.Workloads.Workload.mix
    in
    let cfg =
      Core.Runner.config ~scheme:Core.Scheme.Hybrid ~sched
        Htm_sim.Machine.xeon_e3
    in
    let t =
      Core.Runner.create ~io cfg
        ~source:(w.Workloads.Workload.source ~threads ~size:Workloads.Size.Test)
    in
    w.Workloads.Workload.setup (Some io) t.Core.Runner.vm;
    let r = Core.Runner.run ~stop:(fun () -> Netsim.done_all io) t in
    (r, t.Core.Runner.vm.Rvm.Vm.n_threads)
  in
  let heap, n_heap = run Core.Runner.Sched_heap
  and ref_, n_ref = run Core.Runner.Sched_ref in
  Alcotest.(check bool) "tids past 64" true (n_heap > 64);
  Alcotest.(check int) "same thread count" n_ref n_heap;
  Alcotest.(check int) "every request served" requests heap.requests_completed;
  assert_same_run "rails/hybrid/100 requests" heap ref_

let suite =
  [
    Alcotest.test_case "pop order" `Quick test_pop_order;
    Alcotest.test_case "re-key" `Quick test_rekey;
    Alcotest.test_case "mem + remove" `Quick test_mem_remove;
    Alcotest.test_case "pop_min on empty" `Quick test_pop_min_empty;
    Alcotest.test_case "push_pop" `Quick test_push_pop;
    Alcotest.test_case "packed key: ties" `Quick test_packed_ties;
    Alcotest.test_case "packed key: tids past 64" `Quick test_packed_large_tids;
    Alcotest.test_case "packed key: bounds" `Quick test_packed_bounds;
    test_randomized_vs_model;
    Alcotest.test_case "heap = ref scan (compute)" `Quick test_diff_compute;
    Alcotest.test_case "heap = ref scan (server)" `Quick
      (test_diff_server ~clients:3);
    Alcotest.test_case "heap = ref scan (server, 12c)" `Quick
      (test_diff_server ~clients:12);
    Alcotest.test_case "heap = ref scan (npb, 12T)" `Quick test_diff_compute_12;
    Alcotest.test_case "heap = ref scan (thread per request)" `Quick
      test_diff_thread_per_request;
    Alcotest.test_case "chunked advance = run (npb, 12T)" `Quick
      test_chunked_advance_12;
  ]
