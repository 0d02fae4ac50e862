(** AST to bytecode compiler. One lexical scope per method/block; blocks
    resolve the enclosing scopes' locals through (index, depth) pairs like
    YARV; bare names compile to locals when one is in scope at that program
    point and to self-sends otherwise, following Ruby's rule that an
    assignment introduces the local from that point on. *)

exception Error of string

val compile_program : Ast.t -> Value.program
val compile_string : string -> Value.program
(** Parse then compile. @raise Error, {!Parser.Error} or {!Lexer.Error}. *)

val make_code :
  name:string ->
  kind:Value.code_kind ->
  arity:int ->
  nlocals:int ->
  Value.insn array ->
  Value.code
(** A code record with a fresh uid and its per-pc table
    ([Bytecode.code_info]); every code, compiled or synthesized at run time
    ([defclass] accessors), is built through this. *)
