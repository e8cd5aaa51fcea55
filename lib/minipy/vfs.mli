(** In-memory virtual filesystem holding a serverless application image: the
    handler file plus a site-packages tree of library sources.

    Paths are '/'-separated and relative, e.g.
    ["site-packages/torch/__init__.py"]. The debloater overlays the vfs,
    rewrites files, and re-runs the app — mirroring λ-trim's manipulation of
    the real site-packages directory (§7).

    A value is either a {e root} image owning all of its files, or a
    copy-on-write {e overlay} of a base image: reads fall through to the
    base, writes and removals stay in the overlay. File contents are
    content-addressed: {!file_digest} and {!image_digest} provide stable
    cache keys for the parse cache and the oracle memo. *)

type t

val create : unit -> t

(** [overlay base] is a copy-on-write view of [base]: O(1) to build, reads
    fall through, [add_file]/[remove_file] affect only the overlay. The base
    must not be mutated while the overlay is alive.

    Domain safety: a frozen base (no further mutation — the invariant above)
    may be read, overlaid, and digested from many domains at once; the
    lazily-written digest and summary memos are mutex-guarded per layer. A
    single overlay is still single-writer: only the domain that built it may
    mutate it. *)
val overlay : t -> t

val is_overlay : t -> bool

val add_file : t -> string -> string -> unit

(** Register a binary payload (shared object, model weights) by size only:
    it contributes to the image footprint but is never read as source. *)
val add_phantom : t -> string -> bytes:int -> unit

(** On an overlay this writes a tombstone hiding the base file. *)
val remove_file : t -> string -> unit

val read : t -> string -> string option

(** @raise Invalid_argument when the path is absent. *)
val read_exn : t -> string -> string

val exists : t -> string -> bool

(** A deep copy sharing no mutable state; overlay chains are flattened. *)
val copy : t -> t

(** {1 Whole-image views}

    [paths], [file_count], [image_bytes] and [image_digest] are memoized per
    layer and dropped by that layer's own [add_file]/[remove_file]/
    [add_phantom]. An overlay whose delta only rewrites files its base
    already has derives them from the base's memo in O(delta) table work;
    any other delta rebuilds them from the merged view. *)

(** Source paths, sorted (phantoms excluded). *)
val paths : t -> string list

val file_count : t -> int

(** Image size: source bytes plus per-file packaging overhead plus phantoms. *)
val image_bytes : t -> int

val image_mb : t -> float

(** Source paths under a directory prefix. *)
val files_under : t -> string -> string list

(** {1 Content addressing} *)

(** Hex content digest of one file, memoized per owning layer and invalidated
    when the file is rewritten. [None] when the path is absent. *)
val file_digest : t -> string -> string option

(** Content address of the whole effective image: every (path, file digest)
    pair plus every phantom entry. Two images with identical effective
    contents have equal digests regardless of overlay structure. Memoized
    per layer like the whole-image views above. *)
val image_digest : t -> string
