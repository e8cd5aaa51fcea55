(** Persistent on-disk oracle memo: a content-addressed, append-only,
    per-record checksummed observation store shared across process
    restarts, app revisions, and applications.

    Keys are {!Oracle.test_key} digests — md5 over everything a canonical
    output can depend on (backend, optimizer variant, effective image
    digest, entry point, test-case inputs) — so a key either denotes
    exactly one observation or is absent; there is nothing to invalidate
    across revisions. The file is a {!Record_log} with a bare magic
    header: on open only the valid record prefix is replayed, and any torn
    or corrupt tail is discarded (and the file atomically repaired), never
    replayed.

    A store is attached beneath the in-memory {!Oracle.Cache} with
    {!Oracle.Cache.attach_store} (CLI: [--memo-dir DIR]); the cache
    promotes store hits into memory and writes fresh observations
    through. *)

type t

(** The header line of the store file, [ltrim-memo/1]. *)
val magic : string

(** Basename of the store file inside its directory,
    [observations.memo]. *)
val file_name : string

(** [open_ ~dir] opens (creating [dir] and the file as needed) the store
    at [dir]/[file_name]. An existing file is replayed: the valid record
    prefix populates the table; an invalid suffix is dropped, counted in
    {!truncated}, and repaired on disk via write-temp-then-rename. A file
    with a foreign or torn header is started over empty. *)
val open_ : dir:string -> t

(** Lookup by exact key. *)
val find : t -> string -> string option

(** [add t ~key value] durably records one observation: the record is
    checksummed and flushed before returning. Idempotent — a key already
    present is not re-appended (first write wins; keys are
    content-addressed so any later value would be identical anyway).
    Raises [Invalid_argument] if [key] contains ['|'] or newlines, or if
    the store is closed. *)
val add : t -> key:string -> string -> unit

(** Number of distinct observations currently held. *)
val size : t -> int

(** Records replayed from disk by {!open_}. *)
val loaded : t -> int

(** Records appended since {!open_}. *)
val appended : t -> int

(** Invalid trailing lines discarded by {!open_}. *)
val truncated : t -> int

(** Full path of the backing file. *)
val path : t -> string

(** Flush and close the append channel. Reads keep working; further
    {!add}s raise. *)
val close : t -> unit

(** Escape an observation payload for single-line storage:
    ['\\'] → ["\\\\"], ['\n'] → ["\\n"], ['\r'] → ["\\r"],
    ['|'] → ["\\p"]. Exposed for tests. *)
val escape : string -> string

(** Inverse of {!escape}; [None] on any malformed escape sequence so a
    corrupt record can never decode to a wrong observation. Exposed for
    tests. *)
val unescape : string -> string option
