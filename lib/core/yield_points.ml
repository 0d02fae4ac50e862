(* Yield-point sets (Section 3.2 and 4.2).

   Original CRuby places yield points at loop back-edges and method/block
   exits. The paper adds getlocal, getinstancevariable, getclassvariable,
   send and the opt_plus/minus/mult/aref bytecodes, because the original
   points are too coarse for the HTM footprint — with the extended set, more
   than half of all executed bytecodes are yield points in the NPB. The
   classification itself lives with the bytecode ([Rvm.Bytecode]), which
   bakes both sets into every code's per-pc table at compile time. *)

type set = Original | Extended

let to_string = function Original -> "original" | Extended -> "extended"
let original_point = Rvm.Bytecode.yields_original
let extended_point = Rvm.Bytecode.yields_extended

let is_yield_point set insn =
  match set with
  | Original -> original_point insn
  | Extended -> extended_point insn

let info_bit = function
  | Original -> Rvm.Bytecode.info_original
  | Extended -> Rvm.Bytecode.info_extended
