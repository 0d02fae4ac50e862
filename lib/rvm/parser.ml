(* Recursive-descent parser for MiniRuby. *)

open Ast

exception Error of string * int * int

type state = { toks : Lexer.lexed array; mutable pos : int }

let peek st = st.toks.(st.pos).tok
let peek_spaced st = st.toks.(st.pos).spaced
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).tok else Lexer.EOF
let peek2_spaced st = st.pos + 1 < Array.length st.toks && st.toks.(st.pos + 1).spaced
let advance st = st.pos <- st.pos + 1

let err st msg =
  let t = st.toks.(st.pos) in
  raise (Error (msg, t.line, t.col))

let tok_to_string : Lexer.token -> string = function
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "%S" s
  | ISTRING _ -> "interpolated string"
  | IDENT s | CONSTANT s -> s
  | IVAR s -> "@" ^ s
  | CVAR s -> "@@" ^ s
  | GVAR s -> "$" ^ s
  | SYMBOL s -> ":" ^ s
  | KW s -> s
  | OP s -> s
  | NEWLINE -> "newline"
  | EOF -> "end of input"

let expect st t =
  if peek st = t then advance st
  else err st (Printf.sprintf "expected %s, found %s" (tok_to_string t) (tok_to_string (peek st)))

let is_sep = function Lexer.NEWLINE | Lexer.OP ";" -> true | _ -> false

let skip_seps st =
  while is_sep (peek st) do
    advance st
  done

let skip_newlines = skip_seps

(* Tokens that may start a command-call argument: [puts x], [raise "boom"]. *)
let starts_command_arg : Lexer.token -> bool = function
  | INT _ | FLOAT _ | STRING _ | ISTRING _ | IDENT _ | CONSTANT _ | IVAR _
  | CVAR _ | GVAR _ | SYMBOL _ ->
      true
  | KW ("nil" | "true" | "false" | "self") -> true
  | _ -> false

(* forward reference so interpolated strings can parse their embedded
   expressions with a fresh parser instance *)
let parse_ref : (string -> Ast.t) ref = ref (fun _ -> assert false)
let parse src = !parse_ref src

let rec parse_program st =
  let stmts = parse_stmts st [ Lexer.EOF ] in
  expect st Lexer.EOF;
  stmts

and parse_stmts st terminators =
  let stmts = ref [] in
  skip_seps st;
  while not (List.mem (peek st) terminators) do
    stmts := parse_stmt st :: !stmts;
    (match peek st with
    | t when List.mem t terminators -> ()
    | t when is_sep t -> skip_seps st
    | _ -> err st ("unexpected token " ^ tok_to_string (peek st)))
  done;
  List.rev !stmts

and parse_stmt st =
  let stmt =
    match peek st with
    | Lexer.KW "def" -> parse_def st
    | Lexer.KW "class" -> parse_class st
    | Lexer.KW "if" -> parse_if st false
    | Lexer.KW "unless" -> parse_if st true
    | Lexer.KW "while" -> parse_while st false
    | Lexer.KW "until" -> parse_while st true
    | Lexer.KW "case" -> parse_case st
    | Lexer.KW "attr_accessor" ->
        advance st;
        let rec names acc =
          match peek st with
          | Lexer.SYMBOL s ->
              advance st;
              if peek st = Lexer.OP "," then begin
                advance st;
                names (s :: acc)
              end
              else List.rev (s :: acc)
          | _ -> err st "attr_accessor expects symbols"
        in
        Attr_accessor (names [])
    | Lexer.KW "return" ->
        advance st;
        if is_sep (peek st) || peek st = Lexer.KW "end" || peek st = Lexer.EOF
        then Return None
        else if peek st = Lexer.KW "if" then Return None |> modifier st
        else Return (Some (parse_expr st))
    | Lexer.KW "break" ->
        advance st;
        if is_sep (peek st) || peek st = Lexer.KW "end" || peek st = Lexer.KW "if"
        then Break None
        else Break (Some (parse_expr st))
    | Lexer.KW "next" ->
        advance st;
        if is_sep (peek st) || peek st = Lexer.KW "end" || peek st = Lexer.KW "if"
        then Next None
        else Next (Some (parse_expr st))
    | Lexer.IDENT name
      when starts_command_arg (peek2 st)
           || (peek2 st = Lexer.OP "(" && peek2_spaced st)
           || (peek2 st = Lexer.OP "[" && peek2_spaced st) ->
        (* command call without parentheses: [puts x, y], [p (a).b] — a
           spaced "(" or "[" begins an argument, not a call/index *)
        advance st;
        let args = parse_call_args_bare st in
        Expr_stmt (Call (None, name, args, parse_opt_block st))
    | _ -> Expr_stmt (parse_expr st)
  in
  modifier st stmt

(* [stmt if cond] / [stmt unless cond] modifiers. *)
and modifier st stmt =
  match peek st with
  | Lexer.KW "if" ->
      advance st;
      let c = parse_expr st in
      If (c, [ stmt ], [])
  | Lexer.KW "unless" ->
      advance st;
      let c = parse_expr st in
      If (c, [], [ stmt ])
  | _ -> stmt

and parse_def st =
  expect st (Lexer.KW "def");
  let name = parse_method_name st in
  let params =
    if peek st = Lexer.OP "(" then begin
      advance st;
      let ps = parse_param_list st in
      expect st (Lexer.OP ")");
      ps
    end
    else []
  in
  let body = parse_stmts st [ Lexer.KW "end" ] in
  expect st (Lexer.KW "end");
  Def (name, params, body)

and parse_method_name st =
  match peek st with
  | Lexer.IDENT s ->
      advance st;
      (* setter definition: def x=(v) *)
      if peek st = Lexer.OP "=" && peek2 st = Lexer.OP "(" then begin
        advance st;
        s ^ "="
      end
      else s
  | Lexer.OP "[" when peek2 st = Lexer.OP "]" ->
      advance st;
      advance st;
      if peek st = Lexer.OP "=" then begin
        advance st;
        "[]="
      end
      else "[]"
  | Lexer.OP (("+" | "-" | "*" | "/" | "%" | "**" | "==" | "<" | "<=" | ">" | ">=" | "<<") as op) ->
      advance st;
      op
  | t -> err st ("invalid method name " ^ tok_to_string t)

and parse_param_list st =
  if peek st = Lexer.OP ")" then []
  else begin
    let rec go acc =
      match peek st with
      | Lexer.IDENT s ->
          advance st;
          if peek st = Lexer.OP "," then begin
            advance st;
            go (s :: acc)
          end
          else List.rev (s :: acc)
      | t -> err st ("invalid parameter " ^ tok_to_string t)
    in
    go []
  end

and parse_class st =
  expect st (Lexer.KW "class");
  let name =
    match peek st with
    | Lexer.CONSTANT s ->
        advance st;
        s
    | t -> err st ("invalid class name " ^ tok_to_string t)
  in
  let super =
    if peek st = Lexer.OP "<" then begin
      advance st;
      match peek st with
      | Lexer.CONSTANT s ->
          advance st;
          Some s
      | t -> err st ("invalid superclass " ^ tok_to_string t)
    end
    else None
  in
  let body = parse_stmts st [ Lexer.KW "end" ] in
  expect st (Lexer.KW "end");
  Class_def (name, super, body)

and parse_if st negated =
  advance st;
  let cond = parse_expr st in
  let cond = if negated then Unop (Not, cond) else cond in
  if peek st = Lexer.KW "then" then advance st;
  let then_body = parse_stmts st [ Lexer.KW "end"; Lexer.KW "else"; Lexer.KW "elsif" ] in
  let else_body = parse_else st in
  If (cond, then_body, else_body)

and parse_else st =
  match peek st with
  | Lexer.KW "end" ->
      advance st;
      []
  | Lexer.KW "else" ->
      advance st;
      let body = parse_stmts st [ Lexer.KW "end" ] in
      expect st (Lexer.KW "end");
      body
  | Lexer.KW "elsif" ->
      advance st;
      let cond = parse_expr st in
      if peek st = Lexer.KW "then" then advance st;
      let then_body = parse_stmts st [ Lexer.KW "end"; Lexer.KW "else"; Lexer.KW "elsif" ] in
      let else_body = parse_else st in
      [ If (cond, then_body, else_body) ]
  | t -> err st ("unexpected token in if: " ^ tok_to_string t)

and parse_case st =
  expect st (Lexer.KW "case");
  let subject = parse_expr st in
  skip_seps st;
  let clauses = ref [] in
  while peek st = Lexer.KW "when" do
    advance st;
    let vals = parse_call_args_bare st in
    if peek st = Lexer.KW "then" then advance st;
    let body =
      parse_stmts st [ Lexer.KW "when"; Lexer.KW "else"; Lexer.KW "end" ]
    in
    clauses := (vals, body) :: !clauses
  done;
  let else_body =
    if peek st = Lexer.KW "else" then begin
      advance st;
      parse_stmts st [ Lexer.KW "end" ]
    end
    else []
  in
  expect st (Lexer.KW "end");
  Case (subject, List.rev !clauses, else_body)

and parse_while st negated =
  advance st;
  let cond = parse_expr st in
  if peek st = Lexer.KW "do" || peek st = Lexer.KW "then" then advance st;
  let body = parse_stmts st [ Lexer.KW "end" ] in
  expect st (Lexer.KW "end");
  if negated then Until (cond, body) else While (cond, body)

(* ---- expressions ---- *)

and parse_expr st = parse_assignment st

and parse_assignment st =
  let lhs = parse_ternary st in
  match peek st with
  | Lexer.OP "=" ->
      advance st;
      skip_newlines st;
      Asgn (to_lhs st lhs, parse_assignment st)
  | Lexer.OP ("+=" | "-=" | "*=" | "/=" | "%=" | "**=") ->
      let op =
        match peek st with
        | Lexer.OP "+=" -> Add
        | Lexer.OP "-=" -> Sub
        | Lexer.OP "*=" -> Mul
        | Lexer.OP "/=" -> Div
        | Lexer.OP "%=" -> Mod
        | _ -> Pow
      in
      advance st;
      skip_newlines st;
      Op_asgn (to_lhs st lhs, op, parse_assignment st)
  | _ -> lhs

and to_lhs st = function
  | Name s -> L_name s
  | Ivar s -> L_ivar s
  | Cvar s -> L_cvar s
  | Gvar s -> L_gvar s
  | Const s -> L_const s
  | Call (Some r, "[]", args, None) -> L_index (r, args)
  | Call (Some r, m, [], None) -> L_attr (r, m)
  | _ -> err st "invalid assignment target"

and parse_ternary st =
  let c = parse_range st in
  if peek st = Lexer.OP "?" then begin
    advance st;
    skip_newlines st;
    let a = parse_ternary st in
    expect st (Lexer.OP ":");
    skip_newlines st;
    let b = parse_ternary st in
    Ternary (c, a, b)
  end
  else c

and parse_range st =
  let lo = parse_or st in
  match peek st with
  | Lexer.OP ".." ->
      advance st;
      Range_lit (lo, parse_or st, false)
  | Lexer.OP "..." ->
      advance st;
      Range_lit (lo, parse_or st, true)
  | _ -> lo

and parse_or st =
  let rec go acc =
    if peek st = Lexer.OP "||" then begin
      advance st;
      skip_newlines st;
      go (Or (acc, parse_and st))
    end
    else acc
  in
  go (parse_and st)

and parse_and st =
  let rec go acc =
    if peek st = Lexer.OP "&&" then begin
      advance st;
      skip_newlines st;
      go (And (acc, parse_equality st))
    end
    else acc
  in
  go (parse_equality st)

and parse_equality st =
  let rec go acc =
    match peek st with
    | Lexer.OP "==" ->
        advance st;
        go (Binop (Eq, acc, parse_comparison st))
    | Lexer.OP "!=" ->
        advance st;
        go (Binop (Neq, acc, parse_comparison st))
    | _ -> acc
  in
  go (parse_comparison st)

and parse_comparison st =
  let rec go acc =
    match peek st with
    | Lexer.OP "<" ->
        advance st;
        go (Binop (Lt, acc, parse_shift st))
    | Lexer.OP "<=" ->
        advance st;
        go (Binop (Le, acc, parse_shift st))
    | Lexer.OP ">" ->
        advance st;
        go (Binop (Gt, acc, parse_shift st))
    | Lexer.OP ">=" ->
        advance st;
        go (Binop (Ge, acc, parse_shift st))
    | _ -> acc
  in
  go (parse_shift st)

and parse_shift st =
  let rec go acc =
    if peek st = Lexer.OP "<<" then begin
      advance st;
      go (Binop (Shl, acc, parse_additive st))
    end
    else acc
  in
  go (parse_additive st)

and parse_additive st =
  let rec go acc =
    match peek st with
    | Lexer.OP "+" ->
        advance st;
        go (Binop (Add, acc, parse_multiplicative st))
    | Lexer.OP "-" ->
        advance st;
        go (Binop (Sub, acc, parse_multiplicative st))
    | _ -> acc
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go acc =
    match peek st with
    | Lexer.OP "*" ->
        advance st;
        go (Binop (Mul, acc, parse_unary st))
    | Lexer.OP "/" ->
        advance st;
        go (Binop (Div, acc, parse_unary st))
    | Lexer.OP "%" ->
        advance st;
        go (Binop (Mod, acc, parse_unary st))
    | _ -> acc
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.OP "-" ->
      advance st;
      Unop (Neg, parse_unary st)
  | Lexer.OP "!" ->
      advance st;
      Unop (Not, parse_unary st)
  | _ -> parse_power st

and parse_power st =
  let base = parse_postfix st in
  if peek st = Lexer.OP "**" then begin
    advance st;
    Binop (Pow, base, parse_unary st)
  end
  else base

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Lexer.OP "." ->
        advance st;
        skip_newlines st;
        let name =
          match peek st with
          | Lexer.IDENT s ->
              advance st;
              s
          | Lexer.KW "class" ->
              advance st;
              "class"
          | t -> err st ("invalid method name after '.': " ^ tok_to_string t)
        in
        let args =
          if peek st = Lexer.OP "(" then begin
            advance st;
            skip_newlines st;
            let args = parse_call_args st in
            expect st (Lexer.OP ")");
            args
          end
          else []
        in
        let block = parse_opt_block st in
        e := Call (Some !e, name, args, block)
    | Lexer.OP "[" ->
        advance st;
        skip_newlines st;
        let args = parse_call_args st in
        expect st (Lexer.OP "]");
        e := Call (Some !e, "[]", args, None)
    | _ -> continue_ := false
  done;
  !e

and parse_call_args st =
  if peek st = Lexer.OP ")" || peek st = Lexer.OP "]" then []
  else begin
    let rec go acc =
      let a = parse_expr st in
      if peek st = Lexer.OP "," then begin
        advance st;
        skip_newlines st;
        go (a :: acc)
      end
      else List.rev (a :: acc)
    in
    go []
  end

and parse_call_args_bare st =
  let rec go acc =
    let a = parse_expr st in
    if peek st = Lexer.OP "," then begin
      advance st;
      go (a :: acc)
    end
    else List.rev (a :: acc)
  in
  go []

and parse_opt_block st =
  match peek st with
  | Lexer.OP "{" ->
      advance st;
      let params = parse_block_params st in
      let body = parse_stmts st [ Lexer.OP "}" ] in
      expect st (Lexer.OP "}");
      Some { blk_params = params; blk_body = body }
  | Lexer.KW "do" ->
      advance st;
      let params = parse_block_params st in
      let body = parse_stmts st [ Lexer.KW "end" ] in
      expect st (Lexer.KW "end");
      Some { blk_params = params; blk_body = body }
  | _ -> None

and parse_block_params st =
  skip_newlines st;
  if peek st = Lexer.OP "|" then begin
    advance st;
    let rec go acc =
      match peek st with
      | Lexer.IDENT s ->
          advance st;
          if peek st = Lexer.OP "," then begin
            advance st;
            go (s :: acc)
          end
          else begin
            expect st (Lexer.OP "|");
            List.rev (s :: acc)
          end
      | Lexer.OP "|" ->
          advance st;
          List.rev acc
      | t -> err st ("invalid block parameter " ^ tok_to_string t)
    in
    go []
  end
  else []

and parse_primary st =
  match peek st with
  | Lexer.INT i ->
      advance st;
      Int i
  | Lexer.FLOAT f ->
      advance st;
      Float f
  | Lexer.STRING s ->
      advance st;
      Str s
  | Lexer.ISTRING parts ->
      advance st;
      Str_interp
        (List.map
           (function
             | Lexer.SLit l -> Lit_part l
             | Lexer.SExpr src -> (
                 (* parse the embedded expression with a fresh sub-parser *)
                 match parse src with
                 | [ Expr_stmt e ] -> Expr_part e
                 | _ -> err st "interpolation must be a single expression"))
           parts)
  | Lexer.SYMBOL s ->
      advance st;
      Sym_lit s
  | Lexer.KW "nil" ->
      advance st;
      Nil
  | Lexer.KW "true" ->
      advance st;
      True
  | Lexer.KW "false" ->
      advance st;
      False
  | Lexer.KW "self" ->
      advance st;
      Self
  | Lexer.KW "yield" ->
      advance st;
      let args =
        if peek st = Lexer.OP "(" then begin
          advance st;
          let a = parse_call_args st in
          expect st (Lexer.OP ")");
          a
        end
        else if starts_command_arg (peek st) then parse_call_args_bare st
        else []
      in
      Yield args
  | Lexer.KW "if" -> (
      match parse_if st false with
      | If (c, t, e) -> If_expr (c, t, e)
      | _ -> assert false)
  | Lexer.IVAR s ->
      advance st;
      Ivar s
  | Lexer.CVAR s ->
      advance st;
      Cvar s
  | Lexer.GVAR s ->
      advance st;
      Gvar s
  | Lexer.CONSTANT s ->
      advance st;
      Const s
  | Lexer.IDENT s ->
      advance st;
      if peek st = Lexer.OP "(" && not (peek_spaced st) then begin
        advance st;
        skip_newlines st;
        let args = parse_call_args st in
        expect st (Lexer.OP ")");
        Call (None, s, args, parse_opt_block st)
      end
      else begin
        match parse_opt_block st with
        | Some b -> Call (None, s, [], Some b)
        | None -> Name s
      end
  | Lexer.OP "(" ->
      advance st;
      skip_newlines st;
      let e = parse_expr st in
      skip_newlines st;
      expect st (Lexer.OP ")");
      e
  | Lexer.OP "[" ->
      advance st;
      skip_newlines st;
      let args = parse_call_args st in
      skip_newlines st;
      expect st (Lexer.OP "]");
      Array_lit args
  | Lexer.OP "{" ->
      advance st;
      skip_newlines st;
      let pairs =
        if peek st = Lexer.OP "}" then []
        else begin
          let rec go acc =
            let k = parse_expr st in
            expect st (Lexer.OP "=>");
            skip_newlines st;
            let v = parse_expr st in
            if peek st = Lexer.OP "," then begin
              advance st;
              skip_newlines st;
              go ((k, v) :: acc)
            end
            else List.rev ((k, v) :: acc)
          in
          go []
        end
      in
      skip_newlines st;
      expect st (Lexer.OP "}");
      Hash_lit pairs
  | t -> err st ("unexpected token " ^ tok_to_string t)

let () =
  parse_ref :=
    fun src ->
      let toks = Array.of_list (Lexer.tokenize src) in
      parse_program { toks; pos = 0 }
