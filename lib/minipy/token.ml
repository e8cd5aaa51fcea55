(* Tokens produced by the indentation-aware lexer. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Name of string
  | Keyword of string   (* one of the keywords [of_ident] recognises *)
  | Op of string        (* operators and punctuation *)
  | Newline
  | Indent
  | Dedent
  | Eof

(* A string match compiles to a comparison tree, and each keyword token is a
   static constant, so classifying an identifier allocates nothing beyond the
   [Name] of a non-keyword. *)
let of_ident = function
  | "def" -> Keyword "def" | "class" -> Keyword "class"
  | "return" -> Keyword "return" | "if" -> Keyword "if"
  | "elif" -> Keyword "elif" | "else" -> Keyword "else"
  | "while" -> Keyword "while" | "for" -> Keyword "for"
  | "in" -> Keyword "in" | "import" -> Keyword "import"
  | "from" -> Keyword "from" | "as" -> Keyword "as" | "pass" -> Keyword "pass"
  | "break" -> Keyword "break" | "continue" -> Keyword "continue"
  | "raise" -> Keyword "raise" | "try" -> Keyword "try"
  | "except" -> Keyword "except" | "finally" -> Keyword "finally"
  | "and" -> Keyword "and" | "or" -> Keyword "or" | "not" -> Keyword "not"
  | "True" -> Keyword "True" | "False" -> Keyword "False"
  | "None" -> Keyword "None" | "lambda" -> Keyword "lambda"
  | "global" -> Keyword "global" | "del" -> Keyword "del"
  | "assert" -> Keyword "assert" | "with" -> Keyword "with"
  | s -> Name s

let is_keyword s = match of_ident s with Keyword _ -> true | _ -> false

let pp ppf = function
  | Int i -> Fmt.pf ppf "INT(%d)" i
  | Float f -> Fmt.pf ppf "FLOAT(%g)" f
  | Str s -> Fmt.pf ppf "STR(%S)" s
  | Name s -> Fmt.pf ppf "NAME(%s)" s
  | Keyword s -> Fmt.pf ppf "KW(%s)" s
  | Op s -> Fmt.pf ppf "OP(%s)" s
  | Newline -> Fmt.pf ppf "NEWLINE"
  | Indent -> Fmt.pf ppf "INDENT"
  | Dedent -> Fmt.pf ppf "DEDENT"
  | Eof -> Fmt.pf ppf "EOF"

let to_string t = Fmt.str "%a" pp t

let equal (a : t) (b : t) = a = b
