(* Construction and manipulation of builtin objects. All guest-visible state
   goes through the HTM engine with the acting thread's hardware context so
   footprint and conflicts are tracked. *)

open Htm_sim
open Value

let rd vm (th : Vmthread.t) addr = Htm.read vm.Vm.htm ~ctx:th.ctx addr
let wr vm (th : Vmthread.t) addr v = Htm.write vm.Vm.htm ~ctx:th.ctx addr v

let int_field vm th addr =
  match rd vm th addr with
  | VInt i -> i
  | v -> guest_error "expected int field, got %s" (to_string v)

(* ---- arrays ------------------------------------------------------------ *)

let new_array vm th ~len ~fill =
  let slot = Heap.alloc_slot vm.Vm.heap th ~class_id:vm.Vm.c_array.id in
  let cap = Int.max 4 len in
  let data = Heap.malloc vm.Vm.heap th cap in
  wr vm th (slot + Layout.a_len) (vint len);
  wr vm th (slot + Layout.a_cap) (vint cap);
  wr vm th (slot + Layout.a_data) (vint data);
  (* initialise contents; write one cell each so footprint is realistic *)
  for i = 0 to len - 1 do
    wr vm th (data + i) fill
  done;
  slot

let array_len vm th slot = int_field vm th (slot + Layout.a_len)
let array_data vm th slot = int_field vm th (slot + Layout.a_data)

let array_get vm th slot i =
  let len = array_len vm th slot in
  let i = if i < 0 then len + i else i in
  if i < 0 || i >= len then VNil
  else rd vm th (array_data vm th slot + i)

let array_grow vm th slot want =
  let cap = int_field vm th (slot + Layout.a_cap) in
  if want > cap then begin
    let len = array_len vm th slot in
    let data = array_data vm th slot in
    let ncap = Int.max want (2 * cap) in
    let ndata = Heap.malloc vm.Vm.heap th ncap in
    for i = 0 to len - 1 do
      wr vm th (ndata + i) (rd vm th (data + i))
    done;
    wr vm th (slot + Layout.a_cap) (vint ncap);
    wr vm th (slot + Layout.a_data) (vint ndata)
  end

let array_set vm th slot i v =
  let len = array_len vm th slot in
  let i = if i < 0 then len + i else i in
  if i < 0 then guest_error "index %d out of range" i;
  if i >= len then begin
    array_grow vm th slot (i + 1);
    let data = array_data vm th slot in
    for j = len to i - 1 do
      wr vm th (data + j) VNil
    done;
    wr vm th (slot + Layout.a_len) (vint (i + 1))
  end;
  wr vm th (array_data vm th slot + i) v

let array_push vm th slot v =
  let len = array_len vm th slot in
  array_grow vm th slot (len + 1);
  wr vm th (array_data vm th slot + len) v;
  wr vm th (slot + Layout.a_len) (vint (len + 1))

let array_pop vm th slot =
  let len = array_len vm th slot in
  if len = 0 then VNil
  else begin
    let v = rd vm th (array_data vm th slot + len - 1) in
    wr vm th (slot + Layout.a_len) (vint (len - 1));
    v
  end

let array_shift vm th slot =
  let len = array_len vm th slot in
  if len = 0 then VNil
  else begin
    let data = array_data vm th slot in
    let v = rd vm th data in
    for i = 0 to len - 2 do
      wr vm th (data + i) (rd vm th (data + i + 1))
    done;
    wr vm th (slot + Layout.a_len) (vint (len - 1));
    v
  end

(* ---- strings ----------------------------------------------------------- *)

let new_string vm th s =
  let slot = Heap.alloc_slot vm.Vm.heap th ~class_id:vm.Vm.c_string.id in
  let len = String.length s in
  let cells = Layout.string_region_cells len in
  let data = Heap.malloc vm.Vm.heap th cells in
  wr vm th (slot + Layout.s_len) (vint len);
  wr vm th (slot + Layout.s_str) (VStrData s);
  wr vm th (slot + Layout.s_data) (vint data);
  wr vm th (slot + Layout.s_cap) (vint cells);
  Htm.touch_write_range vm.Vm.htm ~ctx:th.ctx data cells;
  slot

let string_content vm th slot =
  let len = int_field vm th (slot + Layout.s_len) in
  let data = int_field vm th (slot + Layout.s_data) in
  Htm.touch_read_range vm.Vm.htm ~ctx:th.ctx data (Layout.string_region_cells len);
  match rd vm th (slot + Layout.s_str) with
  | VStrData s -> s
  | VNil -> ""
  | v -> guest_error "corrupt string payload: %s" (to_string v)

let string_set_content vm th slot s =
  let len = String.length s in
  let cells = Layout.string_region_cells len in
  let cap = int_field vm th (slot + Layout.s_cap) in
  if cells > cap then begin
    let data = Heap.malloc vm.Vm.heap th (Int.max cells (2 * cap)) in
    wr vm th (slot + Layout.s_data) (vint data);
    wr vm th (slot + Layout.s_cap) (vint (Int.max cells (2 * cap)))
  end;
  wr vm th (slot + Layout.s_len) (vint len);
  wr vm th (slot + Layout.s_str) (VStrData s);
  let data = int_field vm th (slot + Layout.s_data) in
  Htm.touch_write_range vm.Vm.htm ~ctx:th.ctx data cells

(* ---- hashes ------------------------------------------------------------ *)

let hashable vm th (v : Value.t) : string =
  match v with
  | VInt i -> "i" ^ string_of_int i
  | VFloat f -> "f" ^ string_of_float f
  | VSym s -> "s" ^ string_of_int s
  | VNil -> "nil"
  | VTrue -> "t"
  | VFalse -> "f"
  | VRef a -> (
      let k = Vm.class_of vm (VRef a) in
      match k.kind with
      | Klass.K_string -> "S" ^ string_content vm th a
      | _ -> "r" ^ string_of_int a)
  | VCode _ | VStrData _ -> guest_error "unhashable internal value"

let hash_key vm th v = Hashtbl.hash (hashable vm th v)

let keys_equal vm th a b =
  match (a, b) with
  | VRef x, VRef y ->
      let kx = Vm.class_of vm a and ky = Vm.class_of vm b in
      if kx.kind = Klass.K_string && ky.kind = Klass.K_string then
        String.equal (string_content vm th x) (string_content vm th y)
      else x = y
  | _ -> a = b

let new_hash vm th ~cap =
  let slot = Heap.alloc_slot vm.Vm.heap th ~class_id:vm.Vm.c_hash.id in
  let cap = Int.max 8 cap in
  let data = Heap.malloc vm.Vm.heap th (2 * cap) in
  wr vm th (slot + Layout.h_count) (vint 0);
  wr vm th (slot + Layout.h_cap) (vint cap);
  wr vm th (slot + Layout.h_data) (vint data);
  for i = 0 to (2 * cap) - 1 do
    wr vm th (data + i) VNil
  done;
  slot

(* Open addressing with linear probing; empty key cells hold VNil (VNil is
   not a legal key). *)
let rec hash_set vm th slot key v =
  let cap = int_field vm th (slot + Layout.h_cap) in
  let count = int_field vm th (slot + Layout.h_count) in
  if 2 * (count + 1) > cap then begin
    hash_rehash vm th slot (2 * cap);
    hash_set vm th slot key v
  end
  else begin
    let data = int_field vm th (slot + Layout.h_data) in
    let h = hash_key vm th key mod cap in
    let rec probe i steps =
      if steps > cap then guest_error "hash table full";
      let kcell = data + (2 * i) in
      match rd vm th kcell with
      | VNil ->
          wr vm th kcell key;
          wr vm th (kcell + 1) v;
          wr vm th (slot + Layout.h_count) (vint (count + 1))
      | k when keys_equal vm th k key -> wr vm th (kcell + 1) v
      | _ -> probe ((i + 1) mod cap) (steps + 1)
    in
    probe h 0
  end

and hash_rehash vm th slot ncap =
  let cap = int_field vm th (slot + Layout.h_cap) in
  let data = int_field vm th (slot + Layout.h_data) in
  let pairs = ref [] in
  for i = 0 to cap - 1 do
    match rd vm th (data + (2 * i)) with
    | VNil -> ()
    | k -> pairs := (k, rd vm th (data + (2 * i) + 1)) :: !pairs
  done;
  let ndata = Heap.malloc vm.Vm.heap th (2 * ncap) in
  for i = 0 to (2 * ncap) - 1 do
    wr vm th (ndata + i) VNil
  done;
  wr vm th (slot + Layout.h_cap) (vint ncap);
  wr vm th (slot + Layout.h_data) (vint ndata);
  wr vm th (slot + Layout.h_count) (vint 0);
  List.iter (fun (k, v) -> hash_set vm th slot k v) !pairs

let hash_get vm th slot key =
  let cap = int_field vm th (slot + Layout.h_cap) in
  let data = int_field vm th (slot + Layout.h_data) in
  let h = hash_key vm th key mod cap in
  let rec probe i steps =
    if steps > cap then VNil
    else
      match rd vm th (data + (2 * i)) with
      | VNil -> VNil
      | k when keys_equal vm th k key -> rd vm th (data + (2 * i) + 1)
      | _ -> probe ((i + 1) mod cap) (steps + 1)
  in
  probe h 0

let hash_mem vm th slot key =
  let cap = int_field vm th (slot + Layout.h_cap) in
  let data = int_field vm th (slot + Layout.h_data) in
  let h = hash_key vm th key mod cap in
  let rec probe i steps =
    if steps > cap then false
    else
      match rd vm th (data + (2 * i)) with
      | VNil -> false
      | k when keys_equal vm th k key -> true
      | _ -> probe ((i + 1) mod cap) (steps + 1)
  in
  probe h 0

let hash_count vm th slot = int_field vm th (slot + Layout.h_count)

let hash_keys vm th slot =
  let cap = int_field vm th (slot + Layout.h_cap) in
  let data = int_field vm th (slot + Layout.h_data) in
  let ks = new_array vm th ~len:0 ~fill:VNil in
  for i = 0 to cap - 1 do
    match rd vm th (data + (2 * i)) with
    | VNil -> ()
    | k -> array_push vm th ks k
  done;
  ks

(* ---- ranges / misc ------------------------------------------------------ *)

let new_range vm th ~lo ~hi ~excl =
  let slot = Heap.alloc_slot vm.Vm.heap th ~class_id:vm.Vm.c_range.id in
  wr vm th (slot + Layout.r_lo) lo;
  wr vm th (slot + Layout.r_hi) hi;
  wr vm th (slot + Layout.r_excl) (if excl then VTrue else VFalse);
  slot

let new_plain vm th (k : Klass.t) =
  Heap.alloc_slot vm.Vm.heap th ~class_id:k.id

(* Human-readable rendering for puts/p and to_s. *)
let rec display vm th (v : Value.t) : string =
  match v with
  | VNil -> ""
  | VTrue -> "true"
  | VFalse -> "false"
  | VInt i -> string_of_int i
  | VFloat f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%.9g" f
  | VSym s -> Sym.name s
  | VRef a -> (
      let k = Vm.class_of vm v in
      match k.kind with
      | Klass.K_string -> string_content vm th a
      | Klass.K_array ->
          let len = array_len vm th a in
          let parts = List.init len (fun i -> inspect vm th (array_get vm th a i)) in
          "[" ^ String.concat ", " parts ^ "]"
      | Klass.K_range ->
          let lo = rd vm th (a + Layout.r_lo) and hi = rd vm th (a + Layout.r_hi) in
          let excl = rd vm th (a + Layout.r_excl) = VTrue in
          display vm th lo ^ (if excl then "..." else "..") ^ display vm th hi
      | _ -> Printf.sprintf "#<%s>" k.name)
  | VCode c -> Printf.sprintf "#<code:%s>" c.code_name
  | VStrData s -> s

and inspect vm th (v : Value.t) : string =
  match v with
  | VNil -> "nil"
  | VRef a when (Vm.class_of vm v).kind = Klass.K_string ->
      Printf.sprintf "%S" (string_content vm th a)
  | VSym s -> ":" ^ Sym.name s
  | _ -> display vm th v
