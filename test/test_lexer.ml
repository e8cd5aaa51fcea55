(* Lexer: token streams, indentation handling, strings, comments. *)

open Minipy

let toks src = List.map fst (Lexer.tokenize ~file:"<t>" src)

let tok = Alcotest.testable Token.pp Token.equal

let check name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list tok)) name expected (toks src))

open Token

let basics =
  [ check "empty" "" [ Eof ];
    check "just newline" "\n" [ Eof ];
    check "int" "42" [ Int 42; Newline; Eof ];
    check "19-digit int" "1234567890123456789"
      [ Int 1234567890123456789; Newline; Eof ];
    check "float" "3.25" [ Float 3.25; Newline; Eof ];
    check "float exp" "1e3" [ Float 1000.0; Newline; Eof ];
    check "trailing dot float" "2." [ Float 2.0; Newline; Eof ];
    check "name" "abc_1" [ Name "abc_1"; Newline; Eof ];
    check "keyword" "def" [ Keyword "def"; Newline; Eof ];
    check "string double" "\"hi\"" [ Str "hi"; Newline; Eof ];
    check "string single" "'hi'" [ Str "hi"; Newline; Eof ];
    check "string escapes" "\"a\\n\\tb\"" [ Str "a\n\tb"; Newline; Eof ];
    check "triple string" "\"\"\"a\nb\"\"\"" [ Str "a\nb"; Newline; Eof ];
    check "escaped newline continues the literal" "\"a\\\nb\""
      [ Str "ab"; Newline; Eof ];
    (* an unknown escape keeps both bytes, whatever the second one is *)
    check "backslash before a 0xff byte" "x = \"a\\\255b\""
      [ Name "x"; Op "="; Str "a\\\255b"; Newline; Eof ];
    check "two char op" "x == y" [ Name "x"; Op "=="; Name "y"; Newline; Eof ];
    check "arrow op" "->" [ Op "->"; Newline; Eof ];
    check "comment" "x # comment\n" [ Name "x"; Newline; Eof ];
    check "comment only line" "# hi\nx" [ Name "x"; Newline; Eof ];
    check "dotted" "a.b" [ Name "a"; Op "."; Name "b"; Newline; Eof ] ]

let indentation =
  [ check "simple block" "if x:\n  y\n"
      [ Keyword "if"; Name "x"; Op ":"; Newline; Indent; Name "y"; Newline;
        Dedent; Eof ];
    check "nested blocks" "if a:\n  if b:\n    c\n"
      [ Keyword "if"; Name "a"; Op ":"; Newline; Indent;
        Keyword "if"; Name "b"; Op ":"; Newline; Indent;
        Name "c"; Newline; Dedent; Dedent; Eof ];
    check "dedent to middle" "if a:\n  b\n  if c:\n    d\n  e\n"
      [ Keyword "if"; Name "a"; Op ":"; Newline; Indent;
        Name "b"; Newline;
        Keyword "if"; Name "c"; Op ":"; Newline; Indent;
        Name "d"; Newline; Dedent;
        Name "e"; Newline; Dedent; Eof ];
    check "blank lines ignored" "x\n\n\ny\n"
      [ Name "x"; Newline; Name "y"; Newline; Eof ];
    check "blank line inside block" "if a:\n  b\n\n  c\n"
      [ Keyword "if"; Name "a"; Op ":"; Newline; Indent;
        Name "b"; Newline; Name "c"; Newline; Dedent; Eof ];
    check "eof closes indents" "if a:\n  b"
      [ Keyword "if"; Name "a"; Op ":"; Newline; Indent; Name "b"; Newline;
        Dedent; Eof ];
    check "implicit joining in parens" "f(1,\n   2)\n"
      [ Name "f"; Op "("; Int 1; Op ","; Int 2; Op ")"; Newline; Eof ];
    check "implicit joining in brackets" "[1,\n 2]"
      [ Op "["; Int 1; Op ","; Int 2; Op "]"; Newline; Eof ];
    check "backslash continuation" "x \\\n+ 1"
      [ Name "x"; Op "+"; Int 1; Newline; Eof ] ]

let errors =
  [ Alcotest.test_case "inconsistent dedent" `Quick (fun () ->
        match toks "if a:\n    b\n  c\n" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Lexer.Error _ -> ());
    Alcotest.test_case "unterminated string" `Quick (fun () ->
        match toks "\"abc" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Lexer.Error _ -> ());
    Alcotest.test_case "newline in string" `Quick (fun () ->
        match toks "\"ab\ncd\"" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Lexer.Error _ -> ());
    Alcotest.test_case "stray character" `Quick (fun () ->
        match toks "x ? y" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Lexer.Error _ -> ()) ]

let suite =
  [ ("lexer.basics", basics);
    ("lexer.indentation", indentation);
    ("lexer.errors", errors) ]
