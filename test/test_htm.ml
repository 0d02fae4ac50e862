(* HTM engine: conflict detection, capacity aborts, footprint accounting,
   the Haswell learning predictor, and the SMT capacity halving. *)

open Htm_sim

let mk ?(machine = Machine.zec12) () =
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 4096 in
  let htm = Htm.create machine store in
  (store, htm)

let begin_ htm ctx =
  Htm.set_occupied htm ctx true;
  Htm.tbegin htm ~ctx ~rollback:(fun _ -> ())

let test_write_write_conflict () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  begin_ htm 1;
  (* requester wins: ctx 1's write to the same line aborts ctx 0 *)
  Htm.write htm ~ctx:1 a 2;
  Alcotest.(check bool) "victim aborted" false (Htm.in_txn htm 0);
  Alcotest.(check bool) "requester alive" true (Htm.in_txn htm 1);
  Alcotest.(check bool)
    "victim reason" true
    (Htm.pending_abort htm 0 = Some Txn.Conflict);
  (* ctx 0's write was rolled back before ctx 1 wrote *)
  Htm.tend htm ~ctx:1;
  Alcotest.(check int) "final value" 2 (Store.get store a)

let test_read_write_conflict () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  Store.set store a 10;
  begin_ htm 0;
  Alcotest.(check int) "reads initial" 10 (Htm.read htm ~ctx:0 a);
  begin_ htm 1;
  Htm.write htm ~ctx:1 a 11;
  Alcotest.(check bool) "reader aborted" false (Htm.in_txn htm 0)

let test_writer_aborted_by_reader () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  Store.set store a 5;
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 6;
  begin_ htm 1;
  (* the read aborts the writer first, then observes the rolled-back value *)
  let v = Htm.read htm ~ctx:1 a in
  Alcotest.(check int) "sees pre-txn value" 5 v;
  Alcotest.(check bool) "writer aborted" false (Htm.in_txn htm 0)

let test_same_line_no_self_conflict () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  Htm.write htm ~ctx:0 (a + 1) 2;
  Alcotest.(check int) "read own write" 1 (Htm.read htm ~ctx:0 a);
  Htm.tend htm ~ctx:0;
  Alcotest.(check int) "committed" 2 (Store.get store (a + 1))

let test_non_txn_write_aborts () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  begin_ htm 0;
  ignore (Htm.read htm ~ctx:0 a);
  (* non-transactional write from another context (e.g. GIL acquisition) *)
  Htm.write htm ~ctx:1 a 9;
  Alcotest.(check bool) "subscriber aborted" false (Htm.in_txn htm 0);
  Alcotest.(check int) "write landed" 9 (Store.get store a)

let test_write_capacity () =
  let store, htm = mk () in
  let machine = Machine.zec12 in
  let region = Store.reserve_aligned store ((machine.ws_lines + 2) * machine.line_cells) in
  begin_ htm 0;
  let aborted = ref false in
  (try
     for i = 0 to machine.ws_lines + 1 do
       Htm.write htm ~ctx:0 (region + (i * machine.line_cells)) i
     done
   with Htm.Abort_now Txn.Overflow_write -> aborted := true);
  Alcotest.(check bool) "write-set overflow" true !aborted

let test_read_capacity_xeon_smt () =
  (* occupying the SMT sibling halves the budget *)
  let machine = Machine.xeon_e3 in
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 4096 in
  let htm = Htm.create machine store in
  let region =
    Store.reserve_aligned store ((machine.ws_lines + 2) * machine.line_cells)
  in
  Htm.set_occupied htm 0 true;
  Htm.set_occupied htm 4 true;
  (* sibling of ctx 0 on a 4-core machine *)
  Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
  let aborted = ref false in
  (try
     (* this fits in the full budget but not in the halved one *)
     for i = 0 to machine.ws_lines - 1 do
       Htm.write htm ~ctx:0 (region + (i * machine.line_cells)) i
     done
   with Htm.Abort_now Txn.Overflow_write -> aborted := true);
  Alcotest.(check bool) "halved budget aborts early" true !aborted;
  Alcotest.(check bool) "aborted" false (Htm.in_txn htm 0)

let test_learning_predictor () =
  let machine = Machine.xeon_e3 in
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 4096 in
  let htm = Htm.create machine store in
  Htm.set_occupied htm 0 true;
  let region =
    Store.reserve_aligned store ((machine.ws_lines + 2) * machine.line_cells)
  in
  (* force a capacity abort: suspicion jumps to 1 *)
  Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
  (try
     for i = 0 to machine.ws_lines + 1 do
       Htm.write htm ~ctx:0 (region + (i * machine.line_cells)) i
     done
   with Htm.Abort_now _ -> ());
  Alcotest.(check bool) "suspicion raised" true (Htm.suspicion_level htm 0 > 0.9);
  Htm.clear_pending_abort htm 0;
  (* suspicion decays per attempt *)
  for _ = 1 to 100 do
    Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
    (try Htm.tend htm ~ctx:0 with Htm.Abort_now _ -> Htm.clear_pending_abort htm 0)
  done;
  Alcotest.(check bool) "suspicion decays" true (Htm.suspicion_level htm 0 < 1.0)

let test_stats () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  Htm.tend htm ~ctx:0;
  let s = Htm.stats htm in
  Alcotest.(check int) "begins" 1 s.Stats.begins;
  Alcotest.(check int) "commits" 1 s.Stats.commits;
  Alcotest.(check int) "ws max" 1 s.Stats.ws_max

(* Each cell is logged once per transaction: repeated and interleaved
   rewrites, leaving the line for another and coming back, add no second
   entry, yet every cell of both lines — the first and the later cells of
   each — rolls back to its value from before the transaction. *)
let test_undo_once_per_txn () =
  let store, htm = mk () in
  let lc = Machine.zec12.line_cells in
  let a = Store.reserve_aligned store (2 * lc) in
  let b = a + lc in
  for i = 0 to (2 * lc) - 1 do
    Store.set store (a + i) (100 + i)
  done;
  begin_ htm 0;
  List.iteri
    (fun v addr -> Htm.write htm ~ctx:0 addr v)
    [ a; a + 1; a; a + 5; a + 1; a; a + lc - 1 ];
  Alcotest.(check int) "four cells of line a, one entry each" 4
    (Htm.undo_entries htm 0);
  ignore (Htm.read htm ~ctx:0 b);
  List.iteri
    (fun v addr -> Htm.write htm ~ctx:0 addr (50 + v))
    [ a + 5; b; a; b + 3; a + 2; b; a + 5 ];
  Alcotest.(check int) "a + 2, b and b + 3 added one entry each" 7
    (Htm.undo_entries htm 0);
  Alcotest.(check int) "newest write visible" 56 (Store.get store (a + 5));
  (try Htm.tabort htm ~ctx:0 Txn.Explicit with Htm.Abort_now _ -> ());
  for i = 0 to (2 * lc) - 1 do
    Alcotest.(check int)
      (Printf.sprintf "cell %d restored" i)
      (100 + i)
      (Store.get store (a + i))
  done

(* The per-line undo mask belongs to one transaction: commit, explicit
   abort and a conflict abort inflicted by another context all clear it,
   so the next transaction to write the line logs again and its own abort
   restores the value that transaction started from. *)
let test_undo_mask_cleared () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  Store.set store a 7;
  let write_then_abort ctx v =
    begin_ htm ctx;
    Htm.write htm ~ctx a v;
    Alcotest.(check int) "the write is logged" 1 (Htm.undo_entries htm ctx);
    (try Htm.tabort htm ~ctx Txn.Explicit with Htm.Abort_now _ -> ());
    Htm.clear_pending_abort htm ctx
  in
  (* commit *)
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  Htm.tend htm ~ctx:0;
  Alcotest.(check int) "no log outside a transaction" 0
    (Htm.undo_entries htm 0);
  write_then_abort 0 2;
  Alcotest.(check int) "abort after a commit restores the commit" 1
    (Store.get store a);
  (* explicit abort *)
  write_then_abort 0 3;
  Alcotest.(check int) "a second abort restores it again" 1
    (Store.get store a);
  (* conflict: ctx 1's write kills ctx 0 and takes the line over *)
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 4;
  begin_ htm 1;
  Htm.write htm ~ctx:1 a 5;
  Alcotest.(check bool) "victim aborted" false (Htm.in_txn htm 0);
  Htm.clear_pending_abort htm 0;
  Alcotest.(check int) "the new writer logged the line" 1
    (Htm.undo_entries htm 1);
  (try Htm.tabort htm ~ctx:1 Txn.Explicit with Htm.Abort_now _ -> ());
  Alcotest.(check int) "the requester's abort restores the victim's start" 1
    (Store.get store a)

(* Writing the value a cell already holds logs and stores nothing, but the
   line still joins the write set: it counts against the footprint and a
   reader from another context still kills the writer. *)
let test_same_value_write () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  Store.set store a 7;
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 7;
  Alcotest.(check int) "nothing logged" 0 (Htm.undo_entries htm 0);
  Alcotest.(check int) "the line is in the write set" 1
    (Htm.footprint_ws htm 0);
  Htm.write htm ~ctx:0 a 8;
  Alcotest.(check int) "a changed value is logged" 1 (Htm.undo_entries htm 0);
  Htm.write htm ~ctx:0 a 7;
  Alcotest.(check int) "a rewrite of a logged cell is not" 1
    (Htm.undo_entries htm 0);
  Htm.tend htm ~ctx:0;
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 7;
  begin_ htm 1;
  ignore (Htm.read htm ~ctx:1 a);
  Alcotest.(check bool) "a reader still conflicts with the writer" false
    (Htm.in_txn htm 0);
  Alcotest.(check int) "the value survives the rollback" 7 (Store.get store a)

(* Serializability on a shared counter: counters incremented under
   transactions with conflict-driven retries end with the exact total. *)
let prop_counter_serializable =
  Tutil.qtest "transactional counter is serializable" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 40))
    (fun (n_ctx, increments) ->
      let machine = Machine.zec12 in
      let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 4096 in
      let htm = Htm.create machine store in
      let cell = Store.reserve_aligned store 1 in
      Store.set store cell 0;
      let remaining = Array.make n_ctx increments in
      for c = 0 to n_ctx - 1 do
        Htm.set_occupied htm c true
      done;
      (* round-robin: each context repeatedly tries one increment *)
      let progress = ref true in
      while !progress do
        progress := false;
        for c = 0 to n_ctx - 1 do
          if remaining.(c) > 0 then begin
            progress := true;
            if Htm.pending_abort htm c <> None then Htm.clear_pending_abort htm c;
            if not (Htm.in_txn htm c) then
              Htm.tbegin htm ~ctx:c ~rollback:(fun _ -> ());
            try
              let v = Htm.read htm ~ctx:c cell in
              Htm.write htm ~ctx:c cell (v + 1);
              if Htm.in_txn htm c then begin
                Htm.tend htm ~ctx:c;
                remaining.(c) <- remaining.(c) - 1
              end
            with Htm.Abort_now _ -> Htm.clear_pending_abort htm c
          end
        done
      done;
      Store.get store cell = n_ctx * increments)

(* The reader table and the software mask are int bitsets indexed by
   context: a machine with more contexts than an int has value bits must be
   refused at creation, not wrap [1 lsl ctx] silently. *)
let test_context_limit () =
  let with_ctx n = { Machine.zec12 with Machine.n_cores = n; smt = 1 } in
  ignore (mk ~machine:(with_ctx Htm.max_ctx) ());
  Alcotest.(check int) "the limit is the int width" (Sys.int_size - 1)
    Htm.max_ctx;
  match mk ~machine:(with_ctx (Htm.max_ctx + 1)) () with
  | _ -> Alcotest.fail "a machine past the bitset width was accepted"
  | exception Invalid_argument msg ->
      let needle = Printf.sprintf "at most %d" Htm.max_ctx in
      let found =
        let n = String.length needle and m = String.length msg in
        let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) ("message names the limit: " ^ msg) true found

let suite =
  [
    Alcotest.test_case "write-write conflict (requester wins)" `Quick
      test_write_write_conflict;
    Alcotest.test_case "read-write conflict" `Quick test_read_write_conflict;
    Alcotest.test_case "reader aborts writer, sees old value" `Quick
      test_writer_aborted_by_reader;
    Alcotest.test_case "own-line accesses don't self-abort" `Quick
      test_same_line_no_self_conflict;
    Alcotest.test_case "non-transactional write aborts subscribers" `Quick
      test_non_txn_write_aborts;
    Alcotest.test_case "write-set capacity abort" `Quick test_write_capacity;
    Alcotest.test_case "context count limited by bitset width" `Quick
      test_context_limit;
    Alcotest.test_case "SMT halves capacity" `Quick test_read_capacity_xeon_smt;
    Alcotest.test_case "Haswell learning predictor" `Quick test_learning_predictor;
    Alcotest.test_case "stats accounting" `Quick test_stats;
    Alcotest.test_case "undo mask cleared at txn boundaries" `Quick
      test_undo_mask_cleared;
    Alcotest.test_case "each cell logged once per transaction" `Quick
      test_undo_once_per_txn;
    Alcotest.test_case "same-value write logs nothing" `Quick
      test_same_value_write;
    prop_counter_serializable;
  ]
