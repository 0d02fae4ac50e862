(** Helpers over compiled code: naming, printing, per-instruction cost
    classification and the yield-point sets. *)

val insn_name : Value.insn -> string
(** YARV-style instruction name ("getlocal", "opt_plus", "send", ...). *)

val pp_insn : Format.formatter -> Value.insn -> unit

val pp_code : Format.formatter -> Value.code -> unit
(** Disassemble a code object including nested blocks and methods. *)

val base_cost : Htm_sim.Machine.costs -> Value.insn -> int
(** Interpreter cost of an instruction before memory-access charges. *)

val cost_class : Value.insn -> int
(** [base_cost] as an index into {!cost_table}: [0] plain, [1] send,
    [2] thread spawn, [3] allocation, [4] definition. *)

val n_cost_classes : int

val cost_table : Htm_sim.Machine.costs -> int array
(** Base cycles per cost class: [(cost_table c).(cost_class i)] equals
    [base_cost c i] for every instruction. *)

val yields_original : Value.insn -> bool
(** Original CRuby yield points: loop back-edges and method/block exits
    (Section 3.2). *)

val yields_extended : Value.insn -> bool
(** The paper's extended set: the original points plus getlocal,
    getinstancevariable, getclassvariable, send, opt_plus, opt_minus,
    opt_mult and opt_aref (Section 4.2). *)

val info_original : int
val info_extended : int
val info_cost_shift : int

val code_info : Value.insn array -> Bytes.t
(** The per-pc table stored in [Value.code.info]: bit {!info_original} and
    bit {!info_extended} mark the two yield-point sets, and the bits from
    {!info_cost_shift} up hold the {!cost_class}. Built once per code. *)
