(** Indentation-aware lexer following the CPython tokenizer structure: a
    stack of indentation levels producing [Indent]/[Dedent] tokens, implicit
    line joining inside brackets, ['#'] comments, ['\']-continued lines, and
    single/double/triple-quoted strings with escapes. *)

exception Error of string * Loc.t

(** A pull stream of tokens over one source string. *)
type t

val create : file:string -> string -> t

(** The next token. After [Eof] every call returns [Eof] again. Raises
    {!Error} on malformed input. *)
val next : t -> Token.t

(** Line (1-based) and column (0-based) where the token {!next} returned
    last starts. *)
val token_line : t -> int
val token_col : t -> int

(** Tokenize a whole source string. The stream always ends with [Eof]; a
    [Newline] precedes it when the file does not end in one; all open
    indentation levels are closed with [Dedent]s. *)
val tokenize : file:string -> string -> (Token.t * Loc.t) list
