(** Yield-point sets. Original CRuby yields at loop back-edges and
    method/block exits (Section 3.2); the paper adds getlocal,
    getinstancevariable, getclassvariable, send, opt_plus, opt_minus,
    opt_mult and opt_aref because the original points are too coarse for
    the HTM footprint (Section 4.2). *)

type set = Original | Extended

val to_string : set -> string
val original_point : Rvm.Value.insn -> bool
val extended_point : Rvm.Value.insn -> bool
val is_yield_point : set -> Rvm.Value.insn -> bool

val info_bit : set -> int
(** The set's bit in a code's per-pc table ([Rvm.Value.code.info]). *)
