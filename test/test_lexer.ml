(* Lexer unit tests. *)

open Rvm

let toks src = List.map (fun (l : Lexer.lexed) -> l.tok) (Lexer.tokenize src)

let tok = Alcotest.testable (fun fmt t -> Format.pp_print_string fmt (Parser.tok_to_string t)) ( = )

let check name expected src =
  Alcotest.(check (list tok)) name (expected @ [ Lexer.EOF ]) (toks src)

let test_numbers () =
  check "ints" [ INT 42; INT 1000000 ] "42 1_000_000";
  check "floats" [ FLOAT 3.14; FLOAT 1e3 ] "3.14 1000.0";
  check "int dot method" [ INT 3; OP "."; IDENT "times" ] "3.times";
  check "range not float" [ INT 1; OP ".."; INT 9 ] "1..9"

let test_strings () =
  check "simple" [ STRING "hi" ] {|"hi"|};
  check "escapes" [ STRING "a\nb\tc\"" ] {|"a\nb\tc\""|};
  check "crlf" [ STRING "x\r\ny" ] {|"x\r\ny"|}

let test_idents () =
  check "kinds"
    [ IDENT "foo"; CONSTANT "Bar"; IVAR "x"; CVAR "y"; GVAR "z"; SYMBOL "sym" ]
    "foo Bar @x @@y $z :sym";
  check "predicate" [ IDENT "empty?" ] "empty?";
  check "bang" [ IDENT "sort!" ] "sort!"

let test_keywords () =
  check "kws" [ KW "def"; KW "end"; KW "if"; KW "while"; KW "yield" ]
    "def end if while yield"

let test_operators () =
  check "compound"
    [ OP "**"; OP "=="; OP "!="; OP "<="; OP ">="; OP "<<"; OP "+="; OP "&&"; OP "=>" ]
    "** == != <= >= << += && =>"

let test_newlines () =
  check "statement breaks" [ INT 1; NEWLINE; INT 2 ] "1\n2";
  check "suppressed in parens" [ OP "("; INT 1; OP ","; INT 2; OP ")" ] "(1,\n2)";
  check "suppressed after operator" [ INT 1; OP "+"; INT 2 ] "1 +\n2";
  check "comments" [ INT 1; NEWLINE; INT 2 ] "1 # comment\n2";
  check "continuation" [ INT 1; OP "+"; INT 2 ] "1 \\\n+ 2"

let test_errors () =
  Alcotest.check_raises "unterminated string"
    (Lexer.Error ("unterminated string", 1, 1))
    (fun () -> ignore (Lexer.tokenize {|"abc|}))

let suite =
  [
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "identifiers" `Quick test_idents;
    Alcotest.test_case "keywords" `Quick test_keywords;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "newline handling" `Quick test_newlines;
    Alcotest.test_case "errors" `Quick test_errors;
  ]
