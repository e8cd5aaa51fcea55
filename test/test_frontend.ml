(* The minipy front end is exact: every corpus file parses to the AST, with
   every node's location, that the committed goldens pin, and malformed input
   fails with the pinned message and position. Fuzzing checks that only the
   typed Lexer.Error / Parser.Error ever escape. *)

open Minipy

(* --- AST dump: every constructor, every location, floats in hex ----------- *)

let dump_program (prog : Ast.program) =
  let b = Buffer.create 4096 in
  let str s = Printf.bprintf b "%S " s in
  let loc (l : Loc.t) = Printf.bprintf b "@%S:%d:%d " l.Loc.file l.line l.col in
  let opt f = function
    | None -> Buffer.add_string b "- "
    | Some x -> Buffer.add_string b "+ "; f x
  in
  let list f xs =
    Printf.bprintf b "[%d " (List.length xs);
    List.iter f xs;
    Buffer.add_string b "] "
  in
  let tag t = Buffer.add_string b t; Buffer.add_char b ' ' in
  let binop (o : Ast.binop) =
    tag
      (match o with
       | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div"
       | FloorDiv -> "floordiv" | Mod -> "mod" | Pow -> "pow" | Eq -> "eq"
       | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
       | And -> "and" | Or -> "or" | In -> "in" | NotIn -> "notin")
  in
  let rec expr (e : Ast.expr) =
    Buffer.add_char b '(';
    loc e.eloc;
    (match e.desc with
     | Const (Cint i) -> Printf.bprintf b "int %d " i
     | Const (Cfloat f) -> Printf.bprintf b "float %h " f
     | Const (Cstr s) -> tag "str"; str s
     | Const (Cbool x) -> Printf.bprintf b "bool %b " x
     | Const Cnone -> tag "none"
     | Name n -> tag "name"; str n
     | Attr (x, a) -> tag "attr"; expr x; str a
     | Subscript (x, k) -> tag "sub"; expr x; expr k
     | Call (f, args, kws) ->
       tag "call"; expr f; list expr args;
       list (fun (n, v) -> str n; expr v) kws
     | Binop (o, l, r) -> tag "binop"; binop o; expr l; expr r
     | Unop (o, x) ->
       tag (match o with Neg -> "neg" | Not -> "not" | Pos -> "pos");
       expr x
     | ListLit xs -> tag "list"; list expr xs
     | TupleLit xs -> tag "tuple"; list expr xs
     | DictLit kvs -> tag "dict"; list (fun (k, v) -> expr k; expr v) kvs
     | Lambda (ps, body) -> tag "lambda"; list str ps; expr body
     | IfExp (c, t, f) -> tag "ifexp"; expr c; expr t; expr f
     | Slice (x, lo, hi) -> tag "slice"; expr x; opt expr lo; opt expr hi
     | ListComp c ->
       tag "listcomp"; expr c.celt; target c.cvar; expr c.citer;
       opt expr c.ccond
     | DictComp c ->
       tag "dictcomp"; expr c.dckey; expr c.dcval; target c.dcvar;
       expr c.dciter; opt expr c.dccond);
    Buffer.add_string b ") "
  and target (t : Ast.target) =
    match t with
    | Tname n -> tag "tname"; str n
    | Tattr (x, a) -> tag "tattr"; expr x; str a
    | Tsubscript (x, k) -> tag "tsub"; expr x; expr k
    | Ttuple ts -> tag "ttuple"; list target ts
  in
  let rec stmt (s : Ast.stmt) =
    Buffer.add_char b '{';
    loc s.sloc;
    (match s.sdesc with
     | Expr_stmt e -> tag "expr"; expr e
     | Assign (t, e) -> tag "assign"; target t; expr e
     | AugAssign (t, o, e) -> tag "aug"; target t; binop o; expr e
     | Import (path, alias) -> tag "import"; list str path; opt str alias
     | From_import (fc, names) ->
       Printf.bprintf b "from %d " fc.fc_level;
       list str fc.fc_path;
       list (fun (n, a) -> str n; opt str a) names
     | Def d ->
       tag "def"; str d.dname;
       list (fun (p : Ast.param) -> str p.pname; opt expr p.pdefault) d.dparams;
       block d.dbody
     | Class c -> tag "class"; str c.cname; list expr c.cbases; block c.cbody
     | Return e -> tag "return"; opt expr e
     | If (branches, orelse) ->
       tag "if"; list (fun (c, body) -> expr c; block body) branches;
       block orelse
     | While (c, body) -> tag "while"; expr c; block body
     | For (t, it, body) -> tag "for"; target t; expr it; block body
     | Try (body, hs, fin) ->
       tag "try"; block body;
       list
         (fun (h : Ast.handler) -> opt str h.hexc; opt str h.hbind; block h.hbody)
         hs;
       block fin
     | Raise e -> tag "raise"; opt expr e
     | Pass -> tag "pass"
     | Break -> tag "break"
     | Continue -> tag "continue"
     | Global ns -> tag "global"; list str ns
     | Del t -> tag "del"; target t
     | Assert (c, m) -> tag "assert"; expr c; opt expr m);
    Buffer.add_string b "} "
  and block body = list stmt body in
  block prog;
  Buffer.contents b

(* Token stream dump, floats in hex. *)
let dump_tokens toks =
  let b = Buffer.create 4096 in
  List.iter
    (fun ((tok : Token.t), (l : Loc.t)) ->
       (match tok with
        | Float f -> Printf.bprintf b "FLOAT(%h)" f
        | tok -> Buffer.add_string b (Token.to_string tok));
       Printf.bprintf b "@%d:%d\n" l.line l.col)
    toks;
  Buffer.contents b

(* Every .py file of every benchmark application, in suite order. *)
let corpus =
  lazy
    (List.concat_map
       (fun (d : Platform.Deployment.t) ->
          List.filter_map
            (fun path ->
               if Filename.check_suffix path ".py" then
                 Option.map
                   (fun src -> (d.Platform.Deployment.name, path, src))
                   (Vfs.read d.vfs path)
               else None)
            (Vfs.paths d.vfs))
       (Workloads.Suite.all_deployments ()))

(* --- goldens recorded from the previous front end -------------------------- *)

let golden_file = Filename.concat "fixtures" (Filename.concat "frontend" "ast.md5")

(* app, path, md5 of [dump_program] *)
let golden =
  lazy
    (In_channel.with_open_bin golden_file In_channel.input_all
     |> String.split_on_char '\n'
     |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | [ app; path; md5 ] -> Some ((app, path), md5)
         | _ -> None))

(* md5 of the concatenated [dump_tokens] of every corpus file, in order *)
let golden_tokens_md5 = "6406fb37ba9cf9f63706c684bfcf153f"

let md5 s = Digest.to_hex (Digest.string s)

let corpus_cases =
  [ Alcotest.test_case "every corpus AST, locations included" `Quick (fun () ->
        let corpus = Lazy.force corpus and golden = Lazy.force golden in
        Alcotest.(check int) "corpus files" (List.length golden)
          (List.length corpus);
        List.iter
          (fun (app, path, src) ->
             let expected =
               match List.assoc_opt (app, path) golden with
               | Some m -> m
               | None -> Alcotest.failf "%s %s: no golden" app path
             in
             Alcotest.(check string) (app ^ " " ^ path) expected
               (md5 (dump_program (Parser.parse ~file:path src))))
          corpus);
    Alcotest.test_case "every corpus token stream" `Quick (fun () ->
        let b = Buffer.create (1 lsl 20) in
        List.iter
          (fun (_, path, src) ->
             Buffer.add_string b (dump_tokens (Lexer.tokenize ~file:path src)))
          (Lazy.force corpus);
        Alcotest.(check string) "tokens md5" golden_tokens_md5
          (md5 (Buffer.contents b))) ]

type outcome =
  | Parsed
  | Lex of string * int * int    (* message, line, column *)
  | Parse of string * int * int

let outcome f =
  match f () with
  | _ -> Parsed
  | exception Lexer.Error (m, l) -> Lex (m, l.Loc.line, l.col)
  | exception Parser.Error (m, l) -> Parse (m, l.Loc.line, l.col)

let pp_outcome ppf = function
  | Parsed -> Fmt.string ppf "parsed"
  | Lex (m, l, c) -> Fmt.pf ppf "Lexer.Error %S at %d:%d" m l c
  | Parse (m, l, c) -> Fmt.pf ppf "Parser.Error %S at %d:%d" m l c

let outcome_t = Alcotest.testable pp_outcome ( = )

(* Malformed modules and the exact error each raises. A lexer error anywhere
   in the input wins over an earlier parse error. *)
let malformed =
  [
    ("if a:\n    b\n  c\n", Lex ("inconsistent dedent", 3, 2));
    ("\"abc", Lex ("unterminated string literal", 1, 4));
    ("x = 'ab\ncd'", Lex ("newline in string literal", 1, 7));
    ("x ? y", Lex ("unexpected character '?'", 1, 2));
    ("x = 99999999999999999999999", Lex ("invalid integer literal \"99999999999999999999999\"", 1, 27));
    ("f(1,\n2", Lex ("unclosed bracket at end of file", 2, 1));
    ("s = \"\"\"abc", Lex ("unterminated string literal", 1, 10));
    ("s = 'abc\\", Lex ("unterminated string literal", 1, 9));
    ("x = $", Lex ("unexpected character '$'", 1, 4));
    ("x = 1 !", Lex ("unexpected character '!'", 1, 6));
    ("x = \195\169", Lex ("unexpected character '\\195'", 1, 4));
    ("if a:\n\tb\n    c\n", Lex ("inconsistent dedent", 3, 4));
    ("1 = x", Parse ("invalid assignment target", 1, 0));
    ("if x\n  y", Parse ("expected OP(:) (found NEWLINE)", 1, 4));
    ("return return", Parse ("expected expression (found KW(return))", 1, 7));
    ("from import x", Parse ("expected identifier (found KW(import))", 1, 5));
    ("def f(:\n  pass", Lex ("unclosed bracket at end of file", 2, 6));
    ("x = [1, 2\n", Lex ("unclosed bracket at end of file", 2, 0));
    ("x[]", Parse ("expected expression (found OP(]))", 1, 2));
    ("x = (1, 2\nfoo", Lex ("unclosed bracket at end of file", 2, 3));
    ("lambda x: ", Parse ("expected expression (found NEWLINE)", 1, 10));
    ("class A(:\n pass", Lex ("unclosed bracket at end of file", 2, 5));
    ("for 1 in xs:\n  pass", Parse ("invalid assignment target", 1, 4));
    ("del f()", Parse ("invalid assignment target", 1, 4));
    ("  x = 1", Parse ("expected expression (found INDENT)", 1, 2));
    ("if x:\npass", Parse ("expected INDENT (found KW(pass))", 2, 0));
    ("try:\n  pass\nexcept ValueError as :\n  pass", Parse ("expected identifier (found OP(:))", 3, 21));
    ("x = 1 if y", Parse ("expected KW(else) (found NEWLINE)", 1, 10));
    ("1 = x\ny = 'abc", Lex ("unterminated string literal", 2, 8));
    ("x = 1e", Parse ("expected NEWLINE (found NAME(e))", 1, 5));
    ("x = 0.5.3", Parse ("expected identifier (found INT(3))", 1, 8));
    ("x = 1.5 2.5", Parse ("expected NEWLINE (found FLOAT(2.5))", 1, 8));
    ("x = \"a\" 'b'", Parse ("expected NEWLINE (found STR(\"b\"))", 1, 8));
    ("f(a=1, 2 3)", Parse ("expected OP()) (found INT(3))", 1, 9));
    ("x = {1: 2, 3}", Parse ("expected OP(:) (found OP(}))", 1, 12));
    ("[x for x in]", Parse ("expected expression (found OP(]))", 1, 11));
    ("import a.", Parse ("expected identifier (found NEWLINE)", 1, 9));
    ("from . import", Parse ("expected identifier (found NEWLINE)", 1, 13));
    ("while True:\n  x = 1\n    y = 2\n", Parse ("expected expression (found INDENT)", 3, 4));
    ("x = 'a\\\nb' + \"c\\\\\" + '\\q'\nz = \"\255", Lex ("unterminated string literal", 3, 6));
    ("def f(a, b=1 c):\n  pass", Parse ("expected OP()) (found NAME(c))", 1, 13)) ]

(* Test-case events go through [parse_expression]: text after the
   expression is ignored but still lexed. *)
let malformed_expressions =
  [
    ("{\"a\": }", Parse ("expected expression (found OP(}))", 1, 6));
    ("1 + 'abc", Lex ("unterminated string literal", 1, 8));
    ("(1) ?", Lex ("unexpected character '?'", 1, 4));
    ("f(x)[0] 7 )", Parsed);
    ("{\"body\": \"hi\"}", Parsed) ]

let error_cases =
  List.map
    (fun (src, expected) ->
       Alcotest.test_case (Printf.sprintf "module %S" src) `Quick (fun () ->
           Alcotest.check outcome_t src expected
             (outcome (fun () -> Parser.parse ~file:"<t>" src))))
    malformed
  @ List.map
      (fun (src, expected) ->
         Alcotest.test_case (Printf.sprintf "expression %S" src) `Quick
           (fun () ->
              Alcotest.check outcome_t src expected
                (outcome (fun () -> Parser.parse_expression ~file:"<e>" src))))
      malformed_expressions

(* --- fuzzing: only the typed errors escape --------------------------------- *)

module Gen = QCheck2.Gen

(* Run every entry point on [src]; any exception other than the typed
   front-end errors fails the property. *)
let front_end_total src =
  let run f = try ignore (f ()) with Lexer.Error _ | Parser.Error _ -> () in
  run (fun () -> Lexer.tokenize ~file:"<f>" src);
  run (fun () -> Parser.parse ~file:"<f>" src);
  run (fun () -> Parser.parse_expression ~file:"<f>" src);
  true

(* Bytes biased toward the ones the lexer treats specially. *)
let gen_byte =
  Gen.oneof
    [ Gen.char;
      Gen.oneofl
        [ ' '; '\t'; '\n'; '\r'; '\\'; '\''; '"'; '#'; '('; ')'; '['; ']';
          '{'; '}'; ':'; '='; ','; '.'; '-'; '*'; '0'; '9'; 'e'; 'x'; '\255' ] ]

let random_bytes =
  QCheck2.Test.make ~count:500 ~name:"front end: random bytes"
    ~print:(Printf.sprintf "%S")
    (Gen.string_size ~gen:gen_byte (Gen.int_range 0 200))
    front_end_total

(* A corpus file with one to four bytes deleted, overwritten or inserted. *)
let mutate rng src =
  let rec go s k =
    if k = 0 then s
    else
      let n = String.length s in
      let i = Random.State.int rng (n + 1) in
      let byte = String.make 1 (Char.chr (Random.State.int rng 256)) in
      let before = String.sub s 0 i in
      let s =
        match Random.State.int rng 3 with
        | 0 when i < n -> before ^ String.sub s (i + 1) (n - i - 1)
        | 1 when i < n -> before ^ byte ^ String.sub s (i + 1) (n - i - 1)
        | _ -> before ^ byte ^ String.sub s i (n - i)
      in
      go s (k - 1)
  in
  go src (1 + Random.State.int rng 4)

let mutated_corpus =
  QCheck2.Test.make ~count:300 ~name:"front end: byte-mutated corpus files"
    ~print:(fun (i, seed) ->
        Printf.sprintf "corpus file %d, mutation seed %d" i seed)
    (Gen.pair (Gen.int_range 0 1_000_000) Gen.nat)
    (fun (i, seed) ->
       let corpus = Lazy.force corpus in
       let _, _, src = List.nth corpus (i mod List.length corpus) in
       front_end_total (mutate (Random.State.make [| seed |]) src))

(* Deep nesting parses (the recursion runs on OCaml 5's growable stack) or
   fails with a typed error; it never overflows the stack. *)
let deep_cases =
  let n = 100_000 in
  let rep k s = String.concat "" (List.init k (fun _ -> s)) in
  let parses name src =
    Alcotest.test_case name `Quick (fun () ->
        match Parser.parse ~file:"<d>" src with
        | [ _ ] -> ()
        | _ -> Alcotest.fail "expected one statement")
  in
  [ parses "100k nested parentheses"
      ("x = " ^ String.make n '(' ^ "1" ^ String.make n ')' ^ "\n");
    parses "100k nested brackets"
      ("x = " ^ String.make n '[' ^ "1" ^ String.make n ']' ^ "\n");
    parses "100k nested braces"
      ("x = " ^ rep n "{1: " ^ "1" ^ String.make n '}' ^ "\n");
    parses "100k unary minus" ("x = " ^ String.make n '-' ^ "1\n");
    parses "100k not" ("x = " ^ rep n "not " ^ "1\n");
    parses "100k chained calls" ("x = f" ^ rep n "()" ^ "\n");
    parses "1k nested blocks"
      (String.concat ""
         (List.init 1000 (fun d -> String.make d ' ' ^ "if x:\n"))
       ^ String.make 1000 ' ' ^ "pass\n");
    Alcotest.test_case "100k unclosed parentheses: typed error" `Quick
      (fun () ->
         Alcotest.check outcome_t "unclosed"
           (Lex ("unclosed bracket at end of file", 1, n + 5))
           (outcome (fun () ->
                Parser.parse ~file:"<d>" ("x = " ^ String.make n '(' ^ "1")))) ]

let suite =
  [ ("frontend.golden", corpus_cases);
    ("frontend.errors", error_cases);
    ("frontend.deep", deep_cases);
    ("frontend.fuzz",
     List.map (QCheck_alcotest.to_alcotest ~long:false)
       [ random_bytes; mutated_corpus ]) ]
