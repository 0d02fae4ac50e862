(* Helpers over compiled code: printing, per-instruction cost
   classification and the yield-point sets. *)

open Value

let insn_name = function
  | Push _ -> "putobject"
  | Pushself -> "putself"
  | Pop -> "pop"
  | Dup -> "dup"
  | Dup2 -> "dup2"
  | Getlocal _ -> "getlocal"
  | Setlocal _ -> "setlocal"
  | Getivar _ -> "getinstancevariable"
  | Setivar _ -> "setinstancevariable"
  | Getcvar _ -> "getclassvariable"
  | Setcvar _ -> "setclassvariable"
  | Getglobal _ -> "getglobal"
  | Setglobal _ -> "setglobal"
  | Getconst _ -> "getconstant"
  | Setconst _ -> "setconstant"
  | Newarray _ -> "newarray"
  | Newarray_sized -> "newarray_sized"
  | Newhash _ -> "newhash"
  | Newrange _ -> "newrange"
  | Newstring _ -> "putstring"
  | Newinstance _ -> "newinstance"
  | Newthread _ -> "newthread"
  | Send _ -> "send"
  | Invokeblock _ -> "invokeblock"
  | Opt_plus -> "opt_plus"
  | Opt_minus -> "opt_minus"
  | Opt_mult -> "opt_mult"
  | Opt_div -> "opt_div"
  | Opt_mod -> "opt_mod"
  | Opt_pow -> "opt_pow"
  | Opt_eq -> "opt_eq"
  | Opt_neq -> "opt_neq"
  | Opt_lt -> "opt_lt"
  | Opt_le -> "opt_le"
  | Opt_gt -> "opt_gt"
  | Opt_ge -> "opt_ge"
  | Opt_aref -> "opt_aref"
  | Opt_aset -> "opt_aset"
  | Opt_ltlt -> "opt_ltlt"
  | Opt_not -> "opt_not"
  | Opt_neg -> "opt_neg"
  | Jump _ -> "jump"
  | Branchif _ -> "branchif"
  | Branchunless _ -> "branchunless"
  | Leave -> "leave"
  | Return_insn -> "return"
  | Break_insn -> "break"
  | Defmethod _ -> "definemethod"
  | Defclass _ -> "defineclass"
  | Nop -> "nop"

let pp_insn fmt insn =
  match insn with
  | Push v -> Format.fprintf fmt "putobject %a" Value.pp v
  | Getlocal (i, d) -> Format.fprintf fmt "getlocal %d, %d" i d
  | Setlocal (i, d) -> Format.fprintf fmt "setlocal %d, %d" i d
  | Getivar (s, _) -> Format.fprintf fmt "getinstancevariable :%s" (Sym.name s)
  | Setivar (s, _) -> Format.fprintf fmt "setinstancevariable :%s" (Sym.name s)
  | Getcvar s -> Format.fprintf fmt "getclassvariable :%s" (Sym.name s)
  | Setcvar s -> Format.fprintf fmt "setclassvariable :%s" (Sym.name s)
  | Getglobal s -> Format.fprintf fmt "getglobal $%s" (Sym.name s)
  | Setglobal s -> Format.fprintf fmt "setglobal $%s" (Sym.name s)
  | Getconst s -> Format.fprintf fmt "getconstant %s" (Sym.name s)
  | Setconst s -> Format.fprintf fmt "setconstant %s" (Sym.name s)
  | Newarray n -> Format.fprintf fmt "newarray %d" n
  | Newhash n -> Format.fprintf fmt "newhash %d" n
  | Newstring s -> Format.fprintf fmt "putstring %S" s
  | Send ss ->
      Format.fprintf fmt "send :%s, %d%s" (Sym.name ss.ss_sym) ss.ss_argc
        (match ss.ss_block with None -> "" | Some _ -> ", <block>")
  | Newinstance ss -> Format.fprintf fmt "newinstance %d" ss.ss_argc
  | Newthread ss -> Format.fprintf fmt "newthread %d" ss.ss_argc
  | Invokeblock n -> Format.fprintf fmt "invokeblock %d" n
  | Jump l -> Format.fprintf fmt "jump %d" l
  | Branchif l -> Format.fprintf fmt "branchif %d" l
  | Branchunless l -> Format.fprintf fmt "branchunless %d" l
  | Defmethod (s, _) -> Format.fprintf fmt "definemethod :%s" (Sym.name s)
  | Defclass cd -> Format.fprintf fmt "defineclass %s" (Sym.name cd.cd_name)
  | i -> Format.pp_print_string fmt (insn_name i)

let rec pp_code fmt (c : code) =
  Format.fprintf fmt "== code %s (arity=%d, locals=%d)@." c.code_name c.arity
    c.nlocals;
  Array.iteri
    (fun i insn -> Format.fprintf fmt "%04d %a@." i pp_insn insn)
    c.insns;
  Array.iter
    (function
      | Send { ss_block = Some b; _ }
      | Newthread { ss_block = Some b; _ }
      | Newinstance { ss_block = Some b; _ } ->
          pp_code fmt b
      | Defmethod (_, body) -> pp_code fmt body
      | Defclass cd -> List.iter (fun (_, m) -> pp_code fmt m) cd.cd_methods
      | _ -> ())
    c.insns

(* Base interpreter cost of an instruction, before memory-access charges. *)
let base_cost (costs : Htm_sim.Machine.costs) = function
  | Send _ | Invokeblock _ | Newinstance _ -> costs.cyc_insn + costs.cyc_send
  | Newthread _ -> costs.cyc_insn + (10 * costs.cyc_send)
  | Newarray _ | Newarray_sized | Newhash _ | Newstring _ | Newrange _ ->
      costs.cyc_insn + costs.cyc_alloc
  | Defclass _ | Defmethod _ -> 4 * costs.cyc_insn
  | _ -> costs.cyc_insn

(* Cost classes: [base_cost] as a small int, so the runner charges an
   instruction with one load from a per-machine table. *)
let cost_class = function
  | Send _ | Invokeblock _ | Newinstance _ -> 1
  | Newthread _ -> 2
  | Newarray _ | Newarray_sized | Newhash _ | Newstring _ | Newrange _ -> 3
  | Defclass _ | Defmethod _ -> 4
  | _ -> 0

let n_cost_classes = 5

let cost_table (c : Htm_sim.Machine.costs) =
  [|
    c.cyc_insn;
    c.cyc_insn + c.cyc_send;
    c.cyc_insn + (10 * c.cyc_send);
    c.cyc_insn + c.cyc_alloc;
    4 * c.cyc_insn;
  |]

(* Yield-point sets (Sections 3.2 and 4.2). Original CRuby yields at loop
   back-edges and method/block exits; the paper adds getlocal,
   getinstancevariable, getclassvariable, send and the
   opt_plus/minus/mult/aref bytecodes, because the original points are too
   coarse for the HTM footprint. *)
let yields_original = function
  | Jump _ | Branchif _ | Branchunless _ -> true (* loop back-edges *)
  | Leave | Return_insn | Break_insn -> true (* method/block exits *)
  | _ -> false

let yields_extended insn =
  match insn with
  | Getlocal _ | Getivar _ | Getcvar _ -> true
  | Send _ | Newinstance _ | Invokeblock _ -> true
  | Opt_plus | Opt_minus | Opt_mult | Opt_aref -> true
  | _ -> yields_original insn

let info_original = 1
let info_extended = 2
let info_cost_shift = 2

let code_info insns =
  Bytes.init (Array.length insns) (fun pc ->
      let i = insns.(pc) in
      Char.unsafe_chr
        ((if yields_original i then info_original else 0)
        lor (if yields_extended i then info_extended else 0)
        lor (cost_class i lsl info_cost_shift)))
