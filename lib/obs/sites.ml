(* Abort-site attribution: the Section 5.6 investigation as a first-class
   report. Every abort is charged to the bytecode site the victim thread was
   executing (code unit, pc, opcode) and — for conflicts — to the cache line
   that caused it. A resolver installed by the VM layer names known shared
   regions (the global free-list head, the GIL word, inline caches, thread
   structs, ...) so the report reads like the paper's: "N% of aborts at
   opt_plus on the global free-list line". *)

type site = { s_code : string; s_pc : int; s_op : string }

type cell = {
  mutable n : int;
  reasons : (string, int) Hashtbl.t;  (** abort reason -> count *)
}

type t = {
  sites : (site, cell) Hashtbl.t;
  lines : (int, int) Hashtbl.t;  (** conflicting line -> abort count *)
  fallbacks : (string * string, int) Hashtbl.t;
      (** (fallback target, cause) -> count: where windows went after giving
          up on their primary execution mode (hardware retries exhausted,
          capacity overflow, explicit escape, STM retry budget, ...) *)
  mutable resolver : int -> string option;  (** line id -> region name *)
  mutable total : int;
}

let create () =
  {
    sites = Hashtbl.create 64;
    lines = Hashtbl.create 64;
    fallbacks = Hashtbl.create 8;
    resolver = (fun _ -> None);
    total = 0;
  }

let set_line_resolver t f = t.resolver <- f

(* The resolver a VM layer installs closes over the live VM; a copy that
   outlives the run keeps only the names of the lines it recorded, so the
   VM behind it can be collected. *)
let detach t =
  let names = Hashtbl.create (Hashtbl.length t.lines) in
  Hashtbl.iter
    (fun line _ ->
      match t.resolver line with
      | Some name -> Hashtbl.replace names line name
      | None -> ())
    t.lines;
  let sites = Hashtbl.create (Hashtbl.length t.sites) in
  Hashtbl.iter
    (fun site c ->
      Hashtbl.replace sites site { n = c.n; reasons = Hashtbl.copy c.reasons })
    t.sites;
  {
    sites;
    lines = Hashtbl.copy t.lines;
    fallbacks = Hashtbl.copy t.fallbacks;
    resolver = Hashtbl.find_opt names;
    total = t.total;
  }

let record t ~code ~pc ~op ~reason ~line =
  t.total <- t.total + 1;
  let key = { s_code = code; s_pc = pc; s_op = op } in
  let cell =
    match Hashtbl.find_opt t.sites key with
    | Some c -> c
    | None ->
        let c = { n = 0; reasons = Hashtbl.create 4 } in
        Hashtbl.add t.sites key c;
        c
  in
  cell.n <- cell.n + 1;
  Hashtbl.replace cell.reasons reason
    (1 + Option.value (Hashtbl.find_opt cell.reasons reason) ~default:0);
  if line >= 0 then
    Hashtbl.replace t.lines line
      (1 + Option.value (Hashtbl.find_opt t.lines line) ~default:0)

let record_fallback t ~target ~cause =
  Hashtbl.replace t.fallbacks (target, cause)
    (1 + Option.value (Hashtbl.find_opt t.fallbacks (target, cause)) ~default:0)

let fallbacks t =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.fallbacks []
  |> List.sort compare
  |> List.map (fun ((target, cause), n) -> (target, cause, n))

let total t = t.total

let take n l =
  let rec go k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: go (k - 1) rest
  in
  go n l

(* Deterministic order: count descending, then site/line ascending. *)
let top_sites t n =
  Hashtbl.fold (fun s c acc -> (s, c) :: acc) t.sites []
  |> List.sort (fun (s1, (c1 : cell)) (s2, c2) ->
         if c1.n <> c2.n then compare c2.n c1.n else compare s1 s2)
  |> take n

let top_lines t n =
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) t.lines []
  |> List.sort (fun (l1, c1) (l2, c2) ->
         if c1 <> c2 then compare c2 c1 else compare l1 l2)
  |> take n

let line_label t line =
  match t.resolver line with
  | Some name -> Printf.sprintf "line %d (%s)" line name
  | None -> Printf.sprintf "line %d" line

let reasons_summary (c : cell) =
  Hashtbl.fold (fun r n acc -> (r, n) :: acc) c.reasons []
  |> List.sort compare
  |> List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n)
  |> String.concat " "

let pct t n =
  if t.total = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int t.total

let report ?(n = 10) fmt t =
  if t.total = 0 then
    Format.fprintf fmt "abort attribution: no aborts recorded@."
  else begin
    Format.fprintf fmt "=== abort-site attribution (%d aborts) ===@." t.total;
    Format.fprintf fmt "top aborting bytecode sites:@.";
    List.iter
      (fun (s, c) ->
        Format.fprintf fmt "  %5.1f%%  %-14s %s:%d  [%s]@." (pct t c.n) s.s_op
          s.s_code s.s_pc (reasons_summary c))
      (top_sites t n);
    let lines = top_lines t n in
    if lines <> [] then begin
      Format.fprintf fmt "top conflicting cache lines:@.";
      List.iter
        (fun (l, cnt) ->
          Format.fprintf fmt "  %5.1f%%  %s@." (pct t cnt) (line_label t l))
        lines
    end;
    let fbs = fallbacks t in
    if fbs <> [] then begin
      let total_fb = List.fold_left (fun acc (_, _, n) -> acc + n) 0 fbs in
      Format.fprintf fmt "fallback causes (%d fallbacks):@." total_fb;
      List.iter
        (fun (target, cause, n) ->
          Format.fprintf fmt "  %8d  -> %-4s %s@." n target cause)
        fbs
    end
  end

let to_json ?(n = 25) t : Json.t =
  Json.Obj
    [
      ("total_aborts", Json.Int t.total);
      ( "sites",
        Json.List
          (List.map
             (fun (s, (c : cell)) ->
               Json.Obj
                 [
                   ("op", Json.Str s.s_op);
                   ("code", Json.Str s.s_code);
                   ("pc", Json.Int s.s_pc);
                   ("aborts", Json.Int c.n);
                   ("share", Json.Float (pct t c.n /. 100.0));
                   ( "reasons",
                     Json.Obj
                       (Hashtbl.fold (fun r k acc -> (r, Json.Int k) :: acc)
                          c.reasons []
                       |> List.sort compare) );
                 ])
             (top_sites t n)) );
      ( "conflict_lines",
        Json.List
          (List.map
             (fun (l, cnt) ->
               Json.Obj
                 [
                   ("line", Json.Int l);
                   ( "region",
                     match t.resolver l with
                     | Some name -> Json.Str name
                     | None -> Json.Null );
                   ("aborts", Json.Int cnt);
                   ("share", Json.Float (pct t cnt /. 100.0));
                 ])
             (top_lines t n)) );
      ( "fallbacks",
        Json.List
          (List.map
             (fun (target, cause, cnt) ->
               Json.Obj
                 [
                   ("target", Json.Str target);
                   ("cause", Json.Str cause);
                   ("count", Json.Int cnt);
                 ])
             (fallbacks t)) );
    ]
