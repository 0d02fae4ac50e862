(* Hand-written lexer for MiniRuby. Newlines are tokens (they terminate
   statements) but are suppressed inside parentheses and brackets, and
   immediately after a token that cannot end an expression. *)

type strpart = SLit of string | SExpr of string

type token =
  | INT of int
  | FLOAT of float
  | STRING of string
  | ISTRING of strpart list  (** "a#{expr}b": interpolated string *)
  | IDENT of string  (** lower-case identifier, possibly ending in ? or ! *)
  | CONSTANT of string
  | IVAR of string
  | CVAR of string
  | GVAR of string
  | SYMBOL of string
  | KW of string  (** keyword *)
  | OP of string  (** operator or punctuation *)
  | NEWLINE
  | EOF

type lexed = { tok : token; line : int; col : int; spaced : bool }
(** [spaced]: whitespace (or line start) immediately precedes the token —
    Ruby uses this to tell [foo (x).y] (command call) from [foo(x).y]. *)

exception Error of string * int * int

let keywords =
  [
    "def"; "end"; "if"; "elsif"; "else"; "unless"; "while"; "until"; "do";
    "then"; "class"; "return"; "break"; "next"; "nil"; "true"; "false";
    "self"; "yield"; "attr_accessor"; "case"; "when";
  ]

let is_keyword s = List.mem s keywords
let is_digit c = c >= '0' && c <= '9'
let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_upper c = c >= 'A' && c <= 'Z'
let is_ident_char c = is_lower c || is_upper c || is_digit c

(* Tokens after which a newline is never a statement terminator. *)
let continuation_token = function
  | OP
      ( "+" | "-" | "*" | "/" | "%" | "**" | "==" | "!=" | "<" | "<=" | ">"
      | ">=" | "<<" | "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&&" | "||"
      | "!" | "." | "," | "(" | "[" | "{" | "|" | ".." | "..." | "=>" | "?"
      | ":" ) ->
      true
  | KW ("then" | "do" | "elsif" | "else" | "if" | "unless" | "while" | "until")
    ->
      true
  | NEWLINE -> true
  | _ -> false

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let line = ref 1 in
  let line_start = ref 0 in
  (* where the token being scanned starts: tokens and lexing errors both
     report that position, so a multi-line string names its first line *)
  let tok_line = ref 1 and tok_col = ref 1 in
  (* just past the last token other than a newline: where end of input is
     reported, so a missing [end] names the file's last line *)
  let end_line = ref 1 and end_col = ref 1 in
  let newline_at k =
    incr line;
    line_start := k + 1
  in
  let error msg = raise (Error (msg, !tok_line, !tok_col)) in
  let depth = ref 0 in
  let spaced = ref true in
  let emit t =
    toks := { tok = t; line = !tok_line; col = !tok_col; spaced = !spaced } :: !toks;
    (match t with
    | NEWLINE -> ()
    | _ ->
        end_line := !line;
        end_col := !i - !line_start + 1);
    spaced := false
  in
  let last_tok () = match !toks with [] -> NEWLINE | t :: _ -> t.tok in
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  while !i < n do
    tok_line := !line;
    tok_col := !i - !line_start + 1;
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then begin
      spaced := true;
      incr i
    end
    else if c = '\\' && peek 1 = '\n' then begin
      (* explicit line continuation *)
      newline_at (!i + 1);
      i := !i + 2
    end
    else if c = '#' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '\n' then begin
      if !depth = 0 && not (continuation_token (last_tok ())) then emit NEWLINE;
      spaced := true;
      newline_at !i;
      incr i
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && (is_digit src.[!i] || src.[!i] = '_') do
        incr i
      done;
      (* A '.' starts a float only when followed by a digit; otherwise it is
         a method call or a range. *)
      if !i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1] then begin
        incr i;
        while !i < n && is_digit src.[!i] do
          incr i
        done;
        if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          incr i;
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
          while !i < n && is_digit src.[!i] do
            incr i
          done
        end;
        let s = String.sub src start (!i - start) in
        emit (FLOAT (float_of_string s))
      end
      else begin
        let s = String.sub src start (!i - start) in
        let s = String.concat "" (String.split_on_char '_' s) in
        match int_of_string_opt s with
        | Some v -> emit (INT v)
        | None -> error ("integer literal out of range: " ^ s)
      end
    end
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      let parts = ref [] in
      incr i;
      let fin = ref false in
      while not !fin do
        if !i >= n then error "unterminated string";
        (match src.[!i] with
        | '"' -> fin := true
        | '\\' ->
            incr i;
            if !i >= n then error "bad escape";
            (match src.[!i] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | '0' -> Buffer.add_char buf '\000'
            | '\\' -> Buffer.add_char buf '\\'
            | '"' -> Buffer.add_char buf '"'
            | '#' -> Buffer.add_char buf '#'
            | ch -> Buffer.add_char buf ch)
        | '#' when peek 1 = '{' ->
            (* interpolation: collect the raw expression up to the matching
               brace (no nested string literals with braces inside) *)
            parts := SLit (Buffer.contents buf) :: !parts;
            Buffer.clear buf;
            i := !i + 2;
            let depth_braces = ref 1 in
            let expr = Buffer.create 16 in
            while !depth_braces > 0 do
              if !i >= n then error "unterminated interpolation";
              (match src.[!i] with
              | '{' ->
                  incr depth_braces;
                  Buffer.add_char expr '{'
              | '}' ->
                  decr depth_braces;
                  if !depth_braces > 0 then Buffer.add_char expr '}'
              | '\n' ->
                  newline_at !i;
                  Buffer.add_char expr '\n'
              | ch -> Buffer.add_char expr ch);
              incr i
            done;
            i := !i - 1;
            parts := SExpr (Buffer.contents expr) :: !parts
        | '\n' ->
            newline_at !i;
            Buffer.add_char buf '\n'
        | ch -> Buffer.add_char buf ch);
        incr i
      done;
      if !parts = [] then emit (STRING (Buffer.contents buf))
      else begin
        parts := SLit (Buffer.contents buf) :: !parts;
        emit (ISTRING (List.rev !parts))
      end
    end
    else if c = ':' && (is_lower (peek 1) || is_upper (peek 1)) then begin
      incr i;
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit (SYMBOL (String.sub src start (!i - start)))
    end
    else if c = '@' && peek 1 = '@' then begin
      i := !i + 2;
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit (CVAR (String.sub src start (!i - start)))
    end
    else if c = '@' then begin
      incr i;
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit (IVAR (String.sub src start (!i - start)))
    end
    else if c = '$' then begin
      incr i;
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit (GVAR (String.sub src start (!i - start)))
    end
    else if is_lower c || is_upper c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      (* trailing ? or ! are part of method names *)
      if !i < n && (src.[!i] = '?' || src.[!i] = '!') && peek 1 <> '=' then
        incr i;
      let s = String.sub src start (!i - start) in
      if is_keyword s then emit (KW s)
      else if is_upper c then emit (CONSTANT s)
      else emit (IDENT s)
    end
    else begin
      let op2 = if !i + 1 < n then String.sub src !i 2 else "" in
      let op3 = if !i + 2 < n then String.sub src !i 3 else "" in
      let take op =
        i := !i + String.length op;
        (match op with
        | "(" | "[" -> incr depth
        | ")" | "]" -> decr depth
        | _ -> ());
        emit (OP op)
      in
      if op3 = "..." then take "..."
      else if op3 = "**=" then take "**="
      else
        match op2 with
        | "**" | "==" | "!=" | "<=" | ">=" | "<<" | "+=" | "-=" | "*=" | "/="
        | "%=" | "&&" | "||" | ".." | "=>" ->
            take op2
        | _ -> (
            match c with
            | '+' | '-' | '*' | '/' | '%' | '<' | '>' | '=' | '!' | '.' | ','
            | '(' | ')' | '[' | ']' | '{' | '}' | '|' | ';' | '?' | ':' | '&'
              ->
                take (String.make 1 c)
            | _ ->
                error (Printf.sprintf "unexpected character %C" c))
    end
  done;
  tok_line := !end_line;
  tok_col := !end_col;
  emit EOF;
  List.rev !toks
