(* Indentation-aware lexer for the minipy subset.

   Follows the CPython tokenizer structure: a stack of indentation levels
   producing Indent/Dedent tokens, implicit line joining inside brackets,
   '#' comments, and '\'-continued lines.

   The lexer is a pull stream: [next] hands out one token at a time, so the
   parser never materialises the token list. It reads bytes straight out of
   the source string, and keyword and operator tokens are static constants,
   so lexing allocates only names and literals. *)

exception Error of string * Loc.t

type t = {
  src : string;
  len : int;
  file : string;
  mutable pos : int;          (* byte offset *)
  mutable line : int;
  mutable bol : int;          (* offset of beginning of current line *)
  mutable indents : int list; (* stack, head = current level *)
  mutable paren_depth : int;
  mutable dedents : int;      (* queued Dedent tokens, at [queued_line/col] *)
  mutable queued_eof : bool;  (* an Eof at the same place follows them *)
  mutable queued_line : int;
  mutable queued_col : int;
  mutable at_line_start : bool;
  mutable emitted_eof : bool;
  (* where the token [next] returned last starts; a [Loc.t] is only built
     for the tokens whose location is asked for *)
  mutable tok_line : int;
  mutable tok_col : int;
  buf : Buffer.t;             (* string literals with escapes *)
}

let create ~file src =
  { src; len = String.length src; file; pos = 0; line = 1; bol = 0;
    indents = [ 0 ]; paren_depth = 0; dedents = 0; queued_eof = false;
    queued_line = 0; queued_col = 0; at_line_start = true;
    emitted_eof = false; tok_line = 0; tok_col = 0; buf = Buffer.create 64 }

let token_line st = st.tok_line
let token_col st = st.tok_col

let loc st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol)

let error st msg = raise (Error (msg, loc st))

(* The token being lexed starts here. *)
let mark st =
  st.tok_line <- st.line;
  st.tok_col <- st.pos - st.bol

(* The byte at [i], which must be in range. *)
let byte st i = String.unsafe_get st.src i

let at st i c = i < st.len && byte st i = c

let newline st =
  st.line <- st.line + 1;
  st.bol <- st.pos

let is_digit c = c >= '0' && c <= '9'
let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_name_char c = is_name_start c || is_digit c

(* Advance to the next '\n' (or the end) without consuming it. *)
let to_eol st =
  while st.pos < st.len && byte st st.pos <> '\n' do st.pos <- st.pos + 1 done

(* Skip spaces and comments within a logical line (not indentation). *)
let rec skip_trivia st =
  if st.pos < st.len then
    match byte st st.pos with
    | ' ' | '\t' -> st.pos <- st.pos + 1; skip_trivia st
    | '#' -> to_eol st; skip_trivia st
    | '\\' when at st (st.pos + 1) '\n' ->
      st.pos <- st.pos + 2; newline st; skip_trivia st
    | _ -> ()

let skip_digits st =
  while st.pos < st.len && is_digit (byte st st.pos) do st.pos <- st.pos + 1 done

let lex_number st =
  let start = st.pos in
  skip_digits st;
  let is_float =
    if at st st.pos '.' then begin
      let next = st.pos + 1 in
      if next < st.len && is_digit (byte st next) then begin
        st.pos <- next; skip_digits st; true
      end
      else if not (next < st.len && is_name_start (byte st next)) then begin
        (* "1." literal *)
        st.pos <- next; skip_digits st; true
      end
      else false
    end
    else false
  in
  let is_float =
    if at st st.pos 'e' || at st st.pos 'E' then begin
      let save = st.pos in
      st.pos <- st.pos + 1;
      if at st st.pos '+' || at st st.pos '-' then st.pos <- st.pos + 1;
      if st.pos < st.len && is_digit (byte st st.pos) then begin
        skip_digits st; true
      end
      else begin st.pos <- save; is_float end
    end
    else is_float
  in
  let n = st.pos - start in
  if is_float then Token.Float (float_of_string (String.sub st.src start n))
  else if n <= 18 then begin
    (* at most 18 digits cannot overflow a 63-bit int *)
    let v = ref 0 in
    for i = start to st.pos - 1 do
      v := (!v * 10) + (Char.code (byte st i) - 48)
    done;
    Token.Int !v
  end
  else
    let text = String.sub st.src start n in
    match int_of_string_opt text with
    | Some i -> Token.Int i
    | None -> error st (Fmt.str "invalid integer literal %S" text)

(* Decode a literal whose opening quote is at [st.pos]. *)
let lex_string st quote =
  st.pos <- st.pos + 1;
  let triple = at st st.pos quote && at st (st.pos + 1) quote in
  if triple then st.pos <- st.pos + 2;
  (* a one-line literal without escapes is a plain substring *)
  let start = st.pos in
  let i = ref start in
  if not triple then
    while
      !i < st.len
      && (let c = byte st !i in c <> quote && c <> '\\' && c <> '\n')
    do incr i done;
  if (not triple) && at st !i quote then begin
    st.pos <- !i + 1;
    Token.Str (String.sub st.src start (!i - start))
  end
  else begin
    let buf = st.buf in
    Buffer.clear buf;
    let rec go () =
      if st.pos >= st.len then error st "unterminated string literal";
      let c = byte st st.pos in
      if c = '\\' then begin
        st.pos <- st.pos + 1;
        if st.pos >= st.len then error st "unterminated string literal";
        let e = byte st st.pos in
        st.pos <- st.pos + 1;
        (match e with
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | '\\' | '\'' | '"' -> Buffer.add_char buf e
         | '0' -> Buffer.add_char buf '\000'
         | '\n' -> newline st (* line continuation: decodes to nothing *)
         | other -> Buffer.add_char buf '\\'; Buffer.add_char buf other);
        go ()
      end
      else if c = quote then begin
        if not triple then st.pos <- st.pos + 1
        else if at st (st.pos + 1) quote && at st (st.pos + 2) quote then
          st.pos <- st.pos + 3
        else begin
          st.pos <- st.pos + 1; Buffer.add_char buf c; go ()
        end
      end
      else if c = '\n' then begin
        if not triple then error st "newline in string literal";
        st.pos <- st.pos + 1; newline st; Buffer.add_char buf '\n'; go ()
      end
      else begin
        st.pos <- st.pos + 1; Buffer.add_char buf c; go ()
      end
    in
    go ();
    Token.Str (Buffer.contents buf)
  end

(* Operator tokens and their widths are static constants: matching the two
   bytes allocates nothing. *)
let lex_operator st c =
  let c2 = if st.pos + 1 < st.len then byte st (st.pos + 1) else '\000' in
  let tok, width =
    match c, c2 with
    | '=', '=' -> (Token.Op "==", 2)
    | '!', '=' -> (Token.Op "!=", 2)
    | '<', '=' -> (Token.Op "<=", 2)
    | '>', '=' -> (Token.Op ">=", 2)
    | '*', '*' -> (Token.Op "**", 2)
    | '/', '/' -> (Token.Op "//", 2)
    | '-', '>' -> (Token.Op "->", 2)
    | '+', '=' -> (Token.Op "+=", 2)
    | '-', '=' -> (Token.Op "-=", 2)
    | '*', '=' -> (Token.Op "*=", 2)
    | '/', '=' -> (Token.Op "/=", 2)
    | '%', '=' -> (Token.Op "%=", 2)
    | '+', _ -> (Token.Op "+", 1)
    | '-', _ -> (Token.Op "-", 1)
    | '*', _ -> (Token.Op "*", 1)
    | '/', _ -> (Token.Op "/", 1)
    | '%', _ -> (Token.Op "%", 1)
    | '<', _ -> (Token.Op "<", 1)
    | '>', _ -> (Token.Op ">", 1)
    | '=', _ -> (Token.Op "=", 1)
    | '.', _ -> (Token.Op ".", 1)
    | ',', _ -> (Token.Op ",", 1)
    | ':', _ -> (Token.Op ":", 1)
    | '@', _ -> (Token.Op "@", 1)
    | ';', _ -> (Token.Op ";", 1)
    | '(', _ -> (Token.Op "(", 1)
    | '[', _ -> (Token.Op "[", 1)
    | '{', _ -> (Token.Op "{", 1)
    | ')', _ -> (Token.Op ")", 1)
    | ']', _ -> (Token.Op "]", 1)
    | '}', _ -> (Token.Op "}", 1)
    | _ -> error st (Fmt.str "unexpected character %C" c)
  in
  (match c with
   | '(' | '[' | '{' -> st.paren_depth <- st.paren_depth + 1
   | ')' | ']' | '}' -> st.paren_depth <- max 0 (st.paren_depth - 1)
   | _ -> ());
  st.pos <- st.pos + width;
  tok

(* Measure indentation at line start; blank lines and comment-only lines are
   consumed entirely. Returns the width of the next line with content, or -1
   at the end of the input. *)
let rec measure_indent st =
  let width = ref 0 in
  let continue = ref true in
  while !continue && st.pos < st.len do
    match byte st st.pos with
    | ' ' -> st.pos <- st.pos + 1; incr width
    | '\t' -> st.pos <- st.pos + 1; width := !width + 8 - (!width mod 8)
    | _ -> continue := false
  done;
  if st.pos >= st.len then -1
  else
    match byte st st.pos with
    | '\n' -> st.pos <- st.pos + 1; newline st; measure_indent st
    | '#' ->
      to_eol st;
      if st.pos < st.len then begin st.pos <- st.pos + 1; newline st end;
      measure_indent st
    | _ -> !width

let rec next st : Token.t =
  if st.dedents > 0 then begin
    st.dedents <- st.dedents - 1;
    st.tok_line <- st.queued_line;
    st.tok_col <- st.queued_col;
    Token.Dedent
  end
  else if st.queued_eof then begin
    st.queued_eof <- false;
    st.tok_line <- st.queued_line;
    st.tok_col <- st.queued_col;
    Token.Eof
  end
  else if st.emitted_eof then begin mark st; Token.Eof end
  else if st.at_line_start && st.paren_depth = 0 then handle_line_start st
  else lex_token st

(* Emit the first of [n] Dedents here and queue the rest (and an Eof when
   [eof]) at the same place. *)
and dedent st n ~eof =
  mark st;
  st.dedents <- n - 1;
  st.queued_eof <- eof;
  st.queued_line <- st.tok_line;
  st.queued_col <- st.tok_col;
  Token.Dedent

and handle_line_start st =
  st.at_line_start <- false;
  let width = measure_indent st in
  if width < 0 then begin
    (* EOF: close all open indents *)
    let open_levels = List.length st.indents - 1 in
    st.indents <- [ 0 ];
    st.emitted_eof <- true;
    if open_levels = 0 then begin mark st; Token.Eof end
    else dedent st open_levels ~eof:true
  end
  else
    let current = match st.indents with lvl :: _ -> lvl | [] -> 0 in
    if width > current then begin
      st.indents <- width :: st.indents;
      mark st;
      Token.Indent
    end
    else if width < current then begin
      let rec pop n = function
        | lvl :: rest when lvl > width -> pop (n + 1) rest
        | lvl :: _ as stack when lvl = width -> (n, stack)
        | _ -> error st "inconsistent dedent"
      in
      let n, stack = pop 0 st.indents in
      st.indents <- stack;
      dedent st n ~eof:false
    end
    else lex_token st

and lex_token st =
  skip_trivia st;
  mark st;
  if st.pos >= st.len then begin
    st.at_line_start <- true;
    if st.paren_depth > 0 then error st "unclosed bracket at end of file";
    (* emit a final Newline then let line-start logic close indents *)
    Token.Newline
  end
  else
    match byte st st.pos with
    | '\n' ->
      st.pos <- st.pos + 1;
      newline st;
      if st.paren_depth > 0 then lex_token st
      else begin
        st.at_line_start <- true;
        Token.Newline
      end
    | '0' .. '9' -> lex_number st
    | ('"' | '\'') as quote -> lex_string st quote
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let start = st.pos in
      st.pos <- st.pos + 1;
      while st.pos < st.len && is_name_char (byte st st.pos) do
        st.pos <- st.pos + 1
      done;
      Token.of_ident (String.sub st.src start (st.pos - start))
    | c -> lex_operator st c

(* Tokenize a whole source string. The stream always ends with Eof; a Newline
   precedes the Eof when the file does not end in one. *)
let tokenize ~file src =
  let st = create ~file src in
  let rec go acc =
    let tok = next st in
    let l = Loc.make ~file ~line:st.tok_line ~col:st.tok_col in
    let acc = (tok, l) :: acc in
    match tok with Token.Eof -> List.rev acc | _ -> go acc
  in
  go []
