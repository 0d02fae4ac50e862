(* Guest values and compiled code.

   [VRef addr] points at a heap slot header in the simulated store; every
   mutable guest datum lives behind such a reference so the HTM engine sees
   all shared state. [VCode] and [VStrData] only ever appear in internal
   cells (method caches, frame headers, string payloads), never as values a
   guest program can observe directly. *)

type t =
  | VNil
  | VTrue
  | VFalse
  | VInt of int
  | VFloat of float
  | VSym of int
  | VRef of int  (** heap object: store address of the slot header *)
  | VCode of code  (** internal: compiled method or block *)
  | VStrData of string  (** internal: string payload cell *)

and code = {
  code_name : string;
  uid : int;  (** unique id, keys the per-yield-point adjustment tables *)
  kind : code_kind;
  arity : int;
  nlocals : int;  (** parameters first, then other locals *)
  insns : insn array;
  info : Bytes.t;
      (** one byte per pc, built with the code ([Bytecode.code_info]): the
          yield-point bits and cost class the runner reads on every step *)
}

and code_kind = Method | Block | Toplevel

and send_site = {
  ss_sym : int;
  ss_argc : int;
  ss_block : code option;
  ss_cache : int;  (** inline-cache slot index within the program *)
}

and insn =
  | Push of t
  | Pushself
  | Pop
  | Dup
  | Dup2  (** duplicate the two top stack cells (for [a\[i\] op= v]) *)
  | Getlocal of int * int  (** index, scope depth (0 = current) *)
  | Setlocal of int * int
  | Getivar of int * int  (** symbol, cache slot *)
  | Setivar of int * int
  | Getcvar of int
  | Setcvar of int
  | Getglobal of int
  | Setglobal of int
  | Getconst of int
  | Setconst of int
  | Newarray of int  (** literal: pop n elements *)
  | Newarray_sized  (** Array.new(n, fill): pop fill, n *)
  | Newhash of int  (** literal: pop 2n cells *)
  | Newrange of bool  (** exclusive?: pop hi, lo *)
  | Newstring of string
  | Newinstance of send_site  (** Const.new(...) *)
  | Newthread of send_site  (** Thread.new(...) { ... } *)
  | Send of send_site
  | Invokeblock of int  (** yield with argc arguments *)
  | Opt_plus
  | Opt_minus
  | Opt_mult
  | Opt_div
  | Opt_mod
  | Opt_pow
  | Opt_eq
  | Opt_neq
  | Opt_lt
  | Opt_le
  | Opt_gt
  | Opt_ge
  | Opt_aref
  | Opt_aset
  | Opt_ltlt
  | Opt_not
  | Opt_neg
  | Jump of int
  | Branchif of int
  | Branchunless of int
  | Leave  (** return from the current frame with the stack top *)
  | Return_insn  (** explicit [return]: unwinds blocks to the method *)
  | Break_insn
  | Defmethod of int * code
  | Defclass of class_def
  | Nop

and class_def = {
  cd_name : int;
  cd_super : int option;
  cd_methods : (int * code) list;
  cd_attrs : (int * int * int) list;
      (** attr_accessor: (symbol, getter cache slot, setter cache slot) *)
}

type program = {
  main : code;
  n_caches : int;  (** inline-cache slots to reserve at load time *)
}

(* CPython-style small-int interning. [VInt] is an immutable one-field
   block, so sharing one allocation per value is unobservable to guests;
   the table turns the interpreter's hottest allocation sites (arithmetic
   results, loop counters, frame-header and length cells) into array reads.
   Immutable blocks are freely shared across domains in OCaml 5, so one
   global table serves every harness worker. The range covers loop
   counters / array indices at paper-size inputs; out-of-range ints fall
   back to a fresh box. *)
let small_int_min = -256
let small_int_max = 65535

let small_ints =
  Array.init (small_int_max - small_int_min + 1) (fun i ->
      VInt (small_int_min + i))

let vint n =
  if n >= small_int_min && n <= small_int_max then
    Array.unsafe_get small_ints (n - small_int_min)
  else VInt n

(* The uid counter is a first-class per-session cell; the domain-local slot
   holds the *active* one (parallel harness domains never race, and the
   shard tier re-activates its session's cell on every runner entry), so
   uids are a pure function of the compiled program (they key the dynamic
   transaction-length tables). Runtime code also draws uids — [defclass]
   synthesizes accessor codes — so activation matters during runs, not just
   at session boot. *)
type uid_state = int ref

let code_uid_key : uid_state Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let fresh_uid_state () : uid_state = ref 0
let activate_uid_state (r : uid_state) = Domain.DLS.set code_uid_key r
let current_uid_state () = Domain.DLS.get code_uid_key

let fresh_code_uid () =
  let r = Domain.DLS.get code_uid_key in
  incr r;
  !r

let reset_code_uids () = Domain.DLS.get code_uid_key := 0

let truthy = function VNil | VFalse -> false | _ -> true

let type_name = function
  | VNil -> "NilClass"
  | VTrue -> "TrueClass"
  | VFalse -> "FalseClass"
  | VInt _ -> "Integer"
  | VFloat _ -> "Float"
  | VSym _ -> "Symbol"
  | VRef _ -> "Object"
  | VCode _ -> "<code>"
  | VStrData _ -> "<strdata>"

let rec pp fmt = function
  | VNil -> Format.pp_print_string fmt "nil"
  | VTrue -> Format.pp_print_string fmt "true"
  | VFalse -> Format.pp_print_string fmt "false"
  | VInt i -> Format.pp_print_int fmt i
  | VFloat f -> Format.fprintf fmt "%g" f
  | VSym s -> Format.fprintf fmt ":%s" (Sym.name s)
  | VRef a -> Format.fprintf fmt "#<obj@%d>" a
  | VCode c -> Format.fprintf fmt "#<code:%s>" c.code_name
  | VStrData s -> Format.fprintf fmt "%S" s

and to_string v = Format.asprintf "%a" pp v

exception Guest_error of string

let guest_error fmt = Format.kasprintf (fun s -> raise (Guest_error s)) fmt
