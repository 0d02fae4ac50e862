(** Recursive-descent parser for MiniRuby. *)

exception Error of string * int * int
(** message, line, column (both from 1) of the offending token *)

val tok_to_string : Lexer.token -> string

val parse : string -> Ast.t
(** Parse a whole program. @raise Error or {!Lexer.Error} on bad input. *)
