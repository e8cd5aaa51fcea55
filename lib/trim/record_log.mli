(** Append-only log of sealed, sequence-numbered records: the file format
    and crash model shared by {!Journal} and {!Memo_store}.

    A file is a header line — a magic string, optionally followed by
    [|<payload>] — then one record per line,
    [<kind>|<seq>|<body>|<md5 of everything before the last '|'>], with
    [seq] counting records from 0. A record is durable once its ['\n'] is
    flushed. Opening an existing file replays the longest valid prefix:
    lines that are ['\n']-terminated, sealed, in sequence and accepted by
    the caller's decoder. The first line that is not (a torn last line
    included) ends the prefix; it and every later line are dropped and
    the file is repaired via write-temp-then-rename before any append. A
    foreign, different or unterminated header starts the file over. *)

type t

(** [open_ ~path ~magic ?payload decode] opens or creates the log. With
    [replay] (the default) an existing file with the same header is
    replayed: [decode kind line ~pos ~len] is handed each sealed,
    in-sequence record, its body being [line.[pos, pos + len)], and
    returns [false] to reject a malformed body. Without [replay], or when
    the header differs, the file is truncated and a fresh header written
    in place (a crash tears at most the header, which the next open reads
    as foreign). Creates missing parent directories. *)
val open_ :
  ?replay:bool ->
  path:string ->
  magic:string ->
  ?payload:string ->
  (char -> string -> pos:int -> len:int -> bool) ->
  t

(** [locked t f] runs [f] holding [t]'s lock; codecs guard the state they
    replay into with it. *)
val locked : t -> (unit -> 'a) -> 'a

(** [append t kind body] writes the next sealed record and flushes it: it
    is durable on return. Call inside {!locked}. [body] must not contain
    ['\n'].
    @raise Invalid_argument once [t] is closed. *)
val append : t -> char -> string -> unit

(** Records in the file: replayed plus appended. *)
val records : t -> int

(** Records replayed by {!open_}. *)
val loaded : t -> int

(** Lines dropped by {!open_}. *)
val truncated : t -> int

val close : t -> unit

(** {1 The seal} *)

(** [seal payload] is [payload ^ "|" ^ md5 hex of payload]. *)
val seal : string -> string

(** The payload of a sealed line; [None] when the seal does not match. *)
val unseal : string -> string option

(** {1 Shared helpers} *)

(** [check_field what s] rejects a field holding a separator: ['|'],
    ['\n'] or ['\r'].
    @raise Invalid_argument ["<what> must not contain '|' or newlines"]. *)
val check_field : string -> string -> unit

(** Increment a global metrics counter under one process-wide lock. *)
val count : ?by:int -> Obs.Metrics.counter -> unit

val mkdir_p : string -> unit

(** Write [contents] via temp-file-plus-rename in [path]'s directory: a
    crash leaves the old file or the new one, never a torn mix. Creates
    missing parent directories. *)
val write_file_atomic : path:string -> string -> unit
