(* Recursive-descent parser for minipy.

   Precedence (low to high):
     lambda < ternary < or < and < not < comparison < +,- < *,/,//,% <
     unary -,+ < ** < trailers (call, attribute, subscript) < atom

   Tokens are pulled from the lexer on demand. The parser holds the current
   token and at most one token of lookahead past it (a keyword argument
   `name=` in a call). Operator and keyword tests compare the token's string
   payload directly. *)

exception Error of string * Loc.t

type state = {
  lex : Lexer.t;
  file : string;
  mutable tok : Token.t;
  mutable line : int;        (* where [tok] starts *)
  mutable col : int;
  mutable loc : Loc.t;       (* [tok]'s location once built, else [no_loc] *)
  mutable ahead : bool;      (* [next_tok] holds the token after [tok] *)
  mutable next_tok : Token.t;
  mutable next_line : int;
  mutable next_col : int;
}

(* Most tokens' locations are never asked for, so a location is built on
   first request and shared by every node that starts at that token. *)
let no_loc = Loc.make ~file:"" ~line:0 ~col:0

let make ~file src =
  let lex = Lexer.create ~file src in
  let tok = Lexer.next lex in
  { lex; file; tok; line = Lexer.token_line lex; col = Lexer.token_col lex;
    loc = no_loc; ahead = false; next_tok = Token.Eof; next_line = 0;
    next_col = 0 }

let current st = st.tok

let current_loc st =
  if st.loc == no_loc then
    st.loc <- Loc.make ~file:st.file ~line:st.line ~col:st.col;
  st.loc

(* Eof is the last token: advancing past it stays on it. *)
let advance st =
  if st.ahead then begin
    st.tok <- st.next_tok;
    st.line <- st.next_line;
    st.col <- st.next_col;
    st.loc <- no_loc;
    st.ahead <- false
  end
  else
    match st.tok with
    | Token.Eof -> ()
    | _ ->
      st.tok <- Lexer.next st.lex;
      st.line <- Lexer.token_line st.lex;
      st.col <- Lexer.token_col st.lex;
      st.loc <- no_loc

(* The token after the current one, which must not be Eof. *)
let lookahead st =
  if not st.ahead then begin
    st.next_tok <- Lexer.next st.lex;
    st.next_line <- Lexer.token_line st.lex;
    st.next_col <- Lexer.token_col st.lex;
    st.ahead <- true
  end;
  st.next_tok

(* Errors are reported as if the whole input had been lexed before parsing:
   a lexer error anywhere in the input wins over a parse error, so the rest
   of the stream is lexed before a parse error is raised. *)
let rec drain st =
  match Lexer.next st.lex with Token.Eof -> () | _ -> drain st

let fail st msg loc =
  drain st;
  raise (Error (msg, loc))

let error st msg =
  fail st (Fmt.str "%s (found %a)" msg Token.pp (current st)) (current_loc st)

let is_op st op =
  match st.tok with Token.Op o -> String.equal o op | _ -> false

let is_kw st kw =
  match st.tok with Token.Keyword k -> String.equal k kw | _ -> false

let expected st tok = error st (Fmt.str "expected %a" Token.pp tok)

let eat_op st op = if is_op st op then advance st else expected st (Token.Op op)

let eat_kw st kw =
  if is_kw st kw then advance st else expected st (Token.Keyword kw)

let eat_newline st =
  match st.tok with Token.Newline -> advance st | _ -> expected st Token.Newline

let accept_op st op = if is_op st op then begin advance st; true end else false

let accept_kw st kw = if is_kw st kw then begin advance st; true end else false

let expect_name st =
  match current st with
  | Token.Name n -> advance st; n
  | _ -> error st "expected identifier"

(* Skip blank logical lines (stray newlines between statements). *)
let rec skip_newlines st =
  match st.tok with Token.Newline -> advance st; skip_newlines st | _ -> ()

(* --- expressions ------------------------------------------------------- *)

let mk loc desc = { Ast.desc; eloc = loc }

let binop_of_op = function
  | "+" -> Ast.Add | "-" -> Ast.Sub | "*" -> Ast.Mul | "/" -> Ast.Div
  | "//" -> Ast.FloorDiv | "%" -> Ast.Mod | "**" -> Ast.Pow
  | "==" -> Ast.Eq | "!=" -> Ast.Ne | "<" -> Ast.Lt | "<=" -> Ast.Le
  | ">" -> Ast.Gt | ">=" -> Ast.Ge
  | op -> invalid_arg ("binop_of_op: " ^ op)

let rec target_of_expr st (e : Ast.expr) : Ast.target =
  match e.Ast.desc with
  | Ast.Name n -> Ast.Tname n
  | Ast.Attr (base, a) -> Ast.Tattr (base, a)
  | Ast.Subscript (base, k) -> Ast.Tsubscript (base, k)
  | Ast.TupleLit items | Ast.ListLit items ->
    Ast.Ttuple (List.map (target_of_expr st) items)
  | _ -> fail st "invalid assignment target" e.Ast.eloc

let rec parse_expr st : Ast.expr =
  match current st with
  | Token.Keyword "lambda" ->
    let loc = current_loc st in
    advance st;
    let params = parse_name_list st in
    eat_op st ":";
    let body = parse_expr st in
    mk loc (Ast.Lambda (params, body))
  | _ -> parse_ternary st

and parse_name_list st =
  if is_op st ":" then []
  else
    let rec go acc =
      let n = expect_name st in
      if accept_op st "," then go (n :: acc) else List.rev (n :: acc)
    in
    go []

and parse_ternary st =
  let body = parse_or st in
  if accept_kw st "if" then begin
    let cond = parse_or st in
    eat_kw st "else";
    let orelse = parse_expr st in
    mk body.Ast.eloc (Ast.IfExp (cond, body, orelse))
  end
  else body

and parse_or st =
  let lhs = parse_and st in
  if accept_kw st "or" then
    let rhs = parse_or st in
    mk lhs.Ast.eloc (Ast.Binop (Ast.Or, lhs, rhs))
  else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept_kw st "and" then
    let rhs = parse_and st in
    mk lhs.Ast.eloc (Ast.Binop (Ast.And, lhs, rhs))
  else lhs

and parse_not st =
  match current st with
  | Token.Keyword "not" ->
    let loc = current_loc st in
    advance st;
    let operand = parse_not st in
    mk loc (Ast.Unop (Ast.Not, operand))
  | _ -> parse_comparison st

(* Python chains comparisons: a < b < c means (a < b) and (b < c). We
   desugar to the `and` form (middle operands are re-evaluated, a documented
   deviation from CPython's evaluate-once semantics). *)
and parse_comparison st =
  let lhs = parse_arith st in
  match comparison_op st with
  | None -> lhs
  | Some op0 ->
    let rhs0 = parse_arith st in
    comparison_chain st (mk lhs.Ast.eloc (Ast.Binop (op0, lhs, rhs0))) rhs0

and comparison_op st =
  match current st with
  | Token.Op (("==" | "!=" | "<" | "<=" | ">" | ">=") as op) ->
    advance st;
    Some (binop_of_op op)
  | Token.Keyword "in" -> advance st; Some Ast.In
  | Token.Keyword "not" ->
    advance st;
    eat_kw st "in";
    Some Ast.NotIn
  | _ -> None

and comparison_chain st acc prev =
  match comparison_op st with
  | None -> acc
  | Some op ->
    let rhs = parse_arith st in
    let link = mk prev.Ast.eloc (Ast.Binop (op, prev, rhs)) in
    comparison_chain st (mk acc.Ast.eloc (Ast.Binop (Ast.And, acc, link))) rhs

and parse_arith st = arith_rest st (parse_term st)

and arith_rest st lhs =
  match current st with
  | Token.Op (("+" | "-") as op) ->
    advance st;
    let rhs = parse_term st in
    arith_rest st (mk lhs.Ast.eloc (Ast.Binop (binop_of_op op, lhs, rhs)))
  | _ -> lhs

and parse_term st = term_rest st (parse_unary st)

and term_rest st lhs =
  match current st with
  | Token.Op (("*" | "/" | "//" | "%") as op) ->
    advance st;
    let rhs = parse_unary st in
    term_rest st (mk lhs.Ast.eloc (Ast.Binop (binop_of_op op, lhs, rhs)))
  | _ -> lhs

and parse_unary st =
  match current st with
  | Token.Op "-" ->
    let loc = current_loc st in
    advance st;
    mk loc (Ast.Unop (Ast.Neg, parse_unary st))
  | Token.Op "+" ->
    let loc = current_loc st in
    advance st;
    mk loc (Ast.Unop (Ast.Pos, parse_unary st))
  | _ -> parse_power st

and parse_power st =
  let base = parse_postfix st in
  if accept_op st "**" then
    let exp = parse_unary st in
    mk base.Ast.eloc (Ast.Binop (Ast.Pow, base, exp))
  else base

and parse_postfix st =
  let atom = parse_atom st in
  parse_trailers st atom

and parse_trailers st e =
  match current st with
  | Token.Op "." ->
    advance st;
    let name = expect_name st in
    parse_trailers st (mk e.Ast.eloc (Ast.Attr (e, name)))
  | Token.Op "(" ->
    advance st;
    let args, kwargs = call_args st [] [] in
    parse_trailers st (mk e.Ast.eloc (Ast.Call (e, args, kwargs)))
  | Token.Op "[" ->
    advance st;
    (* subscript e[k], or slice e[a:b] with either bound optional *)
    let lo = if is_op st ":" then None else Some (parse_expr st) in
    if accept_op st ":" then begin
      let hi = if is_op st "]" then None else Some (parse_expr st) in
      eat_op st "]";
      parse_trailers st (mk e.Ast.eloc (Ast.Slice (e, lo, hi)))
    end
    else begin
      eat_op st "]";
      match lo with
      | Some idx -> parse_trailers st (mk e.Ast.eloc (Ast.Subscript (e, idx)))
      | None -> error st "empty subscript"
    end
  | _ -> e

(* Call arguments after the '(', up to and including the ')'; [args] and
   [kwargs] hold the ones parsed so far, in reverse. *)
and call_args st args kwargs =
  if accept_op st ")" then (List.rev args, List.rev kwargs)
  else
    match current st with
    | Token.Name n
      when (match lookahead st with Token.Op "=" -> true | _ -> false) ->
      advance st;
      advance st;
      let v = parse_expr st in
      call_args_next st args ((n, v) :: kwargs)
    | _ ->
      let a = parse_expr st in
      call_args_next st (a :: args) kwargs

and call_args_next st args kwargs =
  if accept_op st "," then call_args st args kwargs
  else begin
    eat_op st ")";
    (List.rev args, List.rev kwargs)
  end

and parse_atom st =
  let loc = current_loc st in
  match current st with
  | Token.Int i -> advance st; mk loc (Ast.Const (Ast.Cint i))
  | Token.Float f -> advance st; mk loc (Ast.Const (Ast.Cfloat f))
  | Token.Str s -> advance st; mk loc (Ast.Const (Ast.Cstr s))
  | Token.Keyword "True" -> advance st; mk loc (Ast.Const (Ast.Cbool true))
  | Token.Keyword "False" -> advance st; mk loc (Ast.Const (Ast.Cbool false))
  | Token.Keyword "None" -> advance st; mk loc (Ast.Const Ast.Cnone)
  | Token.Name n -> advance st; mk loc (Ast.Name n)
  | Token.Op "(" ->
    advance st;
    if accept_op st ")" then mk loc (Ast.TupleLit [])
    else begin
      let first = parse_expr st in
      if is_op st "," then begin
        let items = ref [ first ] in
        while accept_op st "," do
          if not (is_op st ")") then items := parse_expr st :: !items
        done;
        eat_op st ")";
        mk loc (Ast.TupleLit (List.rev !items))
      end
      else begin eat_op st ")"; first end
    end
  | Token.Op "[" ->
    advance st;
    if accept_op st "]" then mk loc (Ast.ListLit [])
    else begin
      let first = parse_expr st in
      match current st with
      | Token.Keyword "for" ->
        advance st;
        let cvar = parse_comp_target st in
        eat_kw st "in";
        (* the iterable and condition stop below the ternary level, so the
           comprehension's own `if` is not mistaken for a conditional expr *)
        let citer = parse_or st in
        let ccond = if accept_kw st "if" then Some (parse_or st) else None in
        eat_op st "]";
        mk loc (Ast.ListComp { Ast.celt = first; cvar; citer; ccond })
      | _ ->
        let items =
          if accept_op st "," then list_items st [ first ]
          else begin eat_op st "]"; [ first ] end
        in
        mk loc (Ast.ListLit (List.rev items))
    end
  | Token.Op "{" ->
    advance st;
    if accept_op st "}" then mk loc (Ast.DictLit [])
    else begin
      let k0 = parse_expr st in
      eat_op st ":";
      let v0 = parse_expr st in
      match current st with
      | Token.Keyword "for" ->
        advance st;
        let dcvar = parse_comp_target st in
        eat_kw st "in";
        let dciter = parse_or st in
        let dccond = if accept_kw st "if" then Some (parse_or st) else None in
        eat_op st "}";
        mk loc (Ast.DictComp { Ast.dckey = k0; dcval = v0; dcvar; dciter; dccond })
      | _ ->
        let items =
          if accept_op st "," then dict_items st [ (k0, v0) ]
          else begin eat_op st "}"; [ (k0, v0) ] end
        in
        mk loc (Ast.DictLit (List.rev items))
    end
  | _ -> error st "expected expression"

(* List-literal items after a ',', up to and including the ']', prepended
   to [acc]. *)
and list_items st acc =
  if accept_op st "]" then acc
  else
    let acc = parse_expr st :: acc in
    if accept_op st "," then list_items st acc
    else begin eat_op st "]"; acc end

and dict_items st acc =
  if accept_op st "}" then acc
  else begin
    let k = parse_expr st in
    eat_op st ":";
    let v = parse_expr st in
    let acc = (k, v) :: acc in
    if accept_op st "," then dict_items st acc
    else begin eat_op st "}"; acc end
  end

(* comprehension / for-loop target: postfix expressions joined by commas,
   parsed below the comparison level so `in` is not consumed. *)
and parse_comp_target st : Ast.target =
  let first = parse_postfix st in
  let tgt_expr =
    if is_op st "," then begin
      let items = ref [ first ] in
      while accept_op st "," do
        items := parse_postfix st :: !items
      done;
      mk first.Ast.eloc (Ast.TupleLit (List.rev !items))
    end
    else first
  in
  target_of_expr st tgt_expr

(* testlist: expr (',' expr)* — an unparenthesized tuple. *)
and parse_testlist st =
  let first = parse_expr st in
  if is_op st "," then begin
    let items = ref [ first ] in
    while accept_op st "," do
      match current st with
      | Token.Newline | Token.Eof | Token.Op ("=" | ")" | "]" | "}" | ";") -> ()
      | _ -> items := parse_expr st :: !items
    done;
    mk first.Ast.eloc (Ast.TupleLit (List.rev !items))
  end
  else first

(* --- statements -------------------------------------------------------- *)

let parse_dotted st =
  let rec go acc =
    let n = expect_name st in
    if accept_op st "." then go (n :: acc) else List.rev (n :: acc)
  in
  go []

let stmt loc sdesc = { Ast.sdesc; sloc = loc }

let rec parse_program st acc : Ast.program =
  skip_newlines st;
  match current st with
  | Token.Eof -> List.rev acc
  | _ -> parse_program st (List.rev_append (parse_stmt st) acc)

(* A statement line can hold several ';'-separated small statements, so
   [parse_stmt] returns a list. *)
and parse_stmt st : Ast.stmt list =
  match current st with
  | Token.Keyword "if" -> [ parse_if st ]
  | Token.Keyword "while" -> [ parse_while st ]
  | Token.Keyword "for" -> [ parse_for st ]
  | Token.Keyword "def" -> [ parse_def st ]
  | Token.Keyword "class" -> [ parse_class st ]
  | Token.Keyword "try" -> [ parse_try st ]
  | Token.Op "@" ->
    (* decorators are parsed and discarded: minipy has no decorator semantics,
       but workload generators may emit them for realism *)
    advance st;
    let _ = parse_expr st in
    eat_newline st;
    skip_newlines st;
    parse_stmt st
  | _ -> parse_simple_line st

and parse_simple_line st =
  let first = parse_small_stmt st in
  let stmts = small_stmts st [ first ] in
  (match current st with
   | Token.Eof -> ()
   | _ -> eat_newline st);
  stmts

(* Further ';'-separated small statements; [acc] holds the ones so far, in
   reverse. *)
and small_stmts st acc =
  if accept_op st ";" then
    match current st with
    | Token.Newline | Token.Eof -> List.rev acc
    | _ -> small_stmts st (parse_small_stmt st :: acc)
  else List.rev acc

and parse_small_stmt st : Ast.stmt =
  let loc = current_loc st in
  match current st with
  | Token.Keyword "pass" -> advance st; stmt loc Ast.Pass
  | Token.Keyword "break" -> advance st; stmt loc Ast.Break
  | Token.Keyword "continue" -> advance st; stmt loc Ast.Continue
  | Token.Keyword "return" ->
    advance st;
    (match current st with
     | Token.Newline | Token.Eof | Token.Op ";" -> stmt loc (Ast.Return None)
     | _ -> stmt loc (Ast.Return (Some (parse_testlist st))))
  | Token.Keyword "raise" ->
    advance st;
    (match current st with
     | Token.Newline | Token.Eof | Token.Op ";" -> stmt loc (Ast.Raise None)
     | _ -> stmt loc (Ast.Raise (Some (parse_expr st))))
  | Token.Keyword "global" ->
    advance st;
    let rec names acc =
      let n = expect_name st in
      if accept_op st "," then names (n :: acc) else List.rev (n :: acc)
    in
    stmt loc (Ast.Global (names []))
  | Token.Keyword "del" ->
    advance st;
    let e = parse_expr st in
    stmt loc (Ast.Del (target_of_expr st e))
  | Token.Keyword "assert" ->
    advance st;
    let cond = parse_expr st in
    let msg = if accept_op st "," then Some (parse_expr st) else None in
    stmt loc (Ast.Assert (cond, msg))
  | Token.Keyword "import" ->
    advance st;
    let path = parse_dotted st in
    let alias = if accept_kw st "as" then Some (expect_name st) else None in
    stmt loc (Ast.Import (path, alias))
  | Token.Keyword "from" ->
    advance st;
    (* leading dots select the relative level *)
    let rec dots n = if accept_op st "." then dots (n + 1) else n in
    let fc_level = dots 0 in
    let fc_path =
      match current st with
      | Token.Keyword "import" when fc_level > 0 -> []
      | _ -> parse_dotted st
    in
    eat_kw st "import";
    let parenthesized = accept_op st "(" in
    let rec names acc =
      let n = expect_name st in
      let alias = if accept_kw st "as" then Some (expect_name st) else None in
      if accept_op st "," then names ((n, alias) :: acc)
      else List.rev ((n, alias) :: acc)
    in
    let imported = names [] in
    if parenthesized then eat_op st ")";
    stmt loc (Ast.From_import ({ Ast.fc_level; fc_path }, imported))
  | _ ->
    let e = parse_testlist st in
    (match current st with
     | Token.Op "=" ->
       advance st;
       let target = target_of_expr st e in
       let value = parse_testlist st in
       stmt loc (Ast.Assign (target, value))
     | Token.Op (("+=" | "-=" | "*=" | "/=" | "%=") as op) ->
       advance st;
       let target = target_of_expr st e in
       let value = parse_testlist st in
       let bop = binop_of_op (String.sub op 0 1) in
       stmt loc (Ast.AugAssign (target, bop, value))
     | _ -> stmt loc (Ast.Expr_stmt e))

and parse_block st : Ast.stmt list =
  eat_op st ":";
  match current st with
  | Token.Newline ->
    advance st;
    skip_newlines st;
    (match current st with
     | Token.Indent -> advance st
     | _ -> expected st Token.Indent);
    block_stmts st []
  | _ ->
    (* inline suite: `if x: return y` *)
    parse_simple_line st

and block_stmts st acc =
  skip_newlines st;
  match current st with
  | Token.Dedent -> advance st; List.rev acc
  | Token.Eof -> List.rev acc
  | _ -> block_stmts st (List.rev_append (parse_stmt st) acc)

(* else/elif/except/finally appear at the same indentation as their opener:
   dedent handling has consumed the block, so no newline skipping is
   needed. *)
and parse_if st =
  let loc = current_loc st in
  eat_kw st "if";
  let cond = parse_expr st in
  let body = parse_block st in
  let branches = (cond, body) :: elifs st [] in
  let orelse = if accept_kw st "else" then parse_block st else [] in
  stmt loc (Ast.If (branches, orelse))

and elifs st acc =
  if accept_kw st "elif" then begin
    let c = parse_expr st in
    let b = parse_block st in
    elifs st ((c, b) :: acc)
  end
  else List.rev acc

and parse_while st =
  let loc = current_loc st in
  eat_kw st "while";
  let cond = parse_expr st in
  let body = parse_block st in
  stmt loc (Ast.While (cond, body))

and parse_for st =
  let loc = current_loc st in
  eat_kw st "for";
  (* the target must stop before the `in` keyword, so parse below the
     comparison level (postfix expressions separated by commas) *)
  let target = parse_comp_target st in
  eat_kw st "in";
  let iter = parse_testlist st in
  let body = parse_block st in
  stmt loc (Ast.For (target, iter, body))

and parse_def st =
  let loc = current_loc st in
  eat_kw st "def";
  let name = expect_name st in
  eat_op st "(";
  let params = def_params st [] in
  let body = parse_block st in
  stmt loc (Ast.Def { Ast.dname = name; dparams = params; dbody = body })

(* Parameters up to and including the ')'. *)
and def_params st acc =
  if accept_op st ")" then List.rev acc
  else begin
    let pname = expect_name st in
    let pdefault = if accept_op st "=" then Some (parse_expr st) else None in
    let acc = { Ast.pname; pdefault } :: acc in
    if accept_op st "," then def_params st acc
    else begin eat_op st ")"; List.rev acc end
  end

and parse_class st =
  let loc = current_loc st in
  eat_kw st "class";
  let name = expect_name st in
  let bases =
    if accept_op st "(" then begin
      let bs = ref [] in
      let rec go () =
        if accept_op st ")" then ()
        else begin
          bs := parse_expr st :: !bs;
          if accept_op st "," then go () else eat_op st ")"
        end
      in
      go ();
      List.rev !bs
    end
    else []
  in
  let body = parse_block st in
  stmt loc (Ast.Class { Ast.cname = name; cbases = bases; cbody = body })

and parse_try st =
  let loc = current_loc st in
  eat_kw st "try";
  let body = parse_block st in
  let rec handlers acc =
    if accept_kw st "except" then begin
      let hexc =
        match current st with
        | Token.Name n -> advance st; Some n
        | _ -> None
      in
      let hbind = if accept_kw st "as" then Some (expect_name st) else None in
      let hbody = parse_block st in
      handlers ({ Ast.hexc; hbind; hbody } :: acc)
    end
    else List.rev acc
  in
  let hs = handlers [] in
  let finally = if accept_kw st "finally" then parse_block st else [] in
  stmt loc (Ast.Try (body, hs, finally))

(* --- entry points ------------------------------------------------------ *)

let parse ~file src : Ast.program = parse_program (make ~file src) []

(* The rest of the input after the expression is ignored, but it is still
   lexed: a malformed tail raises Lexer.Error. *)
let parse_expression ~file src : Ast.expr =
  let st = make ~file src in
  let e = parse_expr st in
  drain st;
  e
