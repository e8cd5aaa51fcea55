(** Tokens produced by the indentation-aware lexer. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Name of string
  | Keyword of string  (** one of the keywords {!of_ident} recognises *)
  | Op of string       (** operators and punctuation *)
  | Newline
  | Indent
  | Dedent
  | Eof

(** The token for an identifier: [Keyword s] when [s] is one of the 30
    minipy keywords, [Name s] otherwise. *)
val of_ident : string -> t

val is_keyword : string -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
