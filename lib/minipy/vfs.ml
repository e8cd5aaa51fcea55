(* In-memory virtual filesystem holding a serverless application image:
   the handler file plus a site-packages tree of library sources.

   Paths are '/'-separated, relative, e.g. "site-packages/torch/__init__.py".
   The debloater overlays the vfs, rewrites files, and re-runs the app, which
   mirrors λ-trim's manipulation of the real site-packages directory (§7).

   Two representations share one type:

   - a *root* image ([parent = None]) owns every file;
   - an *overlay* ([parent = Some base]) is a copy-on-write view: reads fall
     through to the base, writes and removals land in the overlay's own delta
     table (removals as tombstones). Building a DD candidate is therefore
     O(rewritten files) instead of O(image files). A base must not be mutated
     while overlays of it are alive — the debloater and baselines obey this
     by constructing images fully before the first overlay is taken.

   Every file content has a content digest, memoized per owning layer and
   invalidated by rewrites; [image_digest] combines them into a single
   content address for the whole image, which the oracle memo and the parse
   cache use as keys.

   The whole-image views — sorted paths, [image_bytes], [image_digest] —
   are memoized per layer too (see [summary]). A DD candidate is an overlay
   rewriting one file its base already has, so its summary is its base's
   with that one file patched in: the table work is O(delta), and only the
   final md5 pass over the digest preimage still touches every path. *)

type entry =
  | Source of string
  | Tombstone       (* overlay-level removal of a base file *)

(* A layer's memoized whole-image views. [sm_pre] is the exact byte string
   [image_digest] hashes; every file digest in it is 32 hex characters, so
   its position never moves when the content changes, and [sm_slots] (path
   -> offset of that path's file digest in [sm_pre]) is shared unchanged by
   every layer derived from this one. All fields are immutable once built,
   so a summary may be read from any domain. *)
type summary = {
  sm_paths : string list;               (* sorted effective source paths *)
  sm_count : int;
  sm_bytes : int;                       (* image_bytes *)
  sm_pre : string;
  sm_slots : (string, int) Hashtbl.t;   (* read-only once built *)
  sm_digest : string;                   (* image_digest *)
}

type t = {
  parent : t option;
  files : (string, entry) Hashtbl.t;
  (* phantom entries: binary payloads (shared objects, model weights)
     represented by size only — they contribute to the image footprint but
     are never read as source *)
  phantoms : (string, int) Hashtbl.t;
  (* path -> hex content digest, for entries owned by THIS layer only; a
     lookup that falls through to the parent also shares the parent's memo *)
  digests : (string, string) Hashtbl.t;
  (* The digest memo is written lazily on reads, and parallel DD evaluates
     candidate overlays that share one base layer from several domains at
     once — so [digests] alone among the tables is mutex-guarded. The other
     tables need no lock because of the structural invariant (see overlay):
     a layer's [files]/[phantoms] are only mutated before any overlay of it
     exists, after which all access is read-only. *)
  dig_lock : Mutex.t;
  (* this layer's whole-image views, built on first use and dropped by this
     layer's own mutations. A parent's mutation cannot reach it: the base
     of a live overlay is never mutated (the invariant above). Written
     lazily like [digests], and under the same lock. *)
  mutable summary : summary option;
}

let create () =
  { parent = None;
    files = Hashtbl.create 64;
    phantoms = Hashtbl.create 4;
    digests = Hashtbl.create 64;
    dig_lock = Mutex.create ();
    summary = None }

let overlay base =
  { parent = Some base;
    files = Hashtbl.create 8;
    phantoms = Hashtbl.create 2;
    digests = Hashtbl.create 8;
    dig_lock = Mutex.create ();
    summary = None }

let is_overlay t = t.parent <> None

(* Drop [path]'s digest memo (if any) and this layer's summary. *)
let invalidate t path =
  Mutex.lock t.dig_lock;
  Option.iter (Hashtbl.remove t.digests) path;
  t.summary <- None;
  Mutex.unlock t.dig_lock

let add_file t path content =
  Hashtbl.replace t.files path (Source content);
  invalidate t (Some path)

let add_phantom t path ~bytes =
  Hashtbl.replace t.phantoms path bytes;
  invalidate t None

let remove_file t path =
  (match t.parent with
   | None -> Hashtbl.remove t.files path
   | Some _ -> Hashtbl.replace t.files path Tombstone);
  invalidate t (Some path)

let rec read t path =
  match Hashtbl.find_opt t.files path with
  | Some (Source c) -> Some c
  | Some Tombstone -> None
  | None ->
    (match t.parent with Some p -> read p path | None -> None)

let read_exn t path =
  match read t path with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Vfs.read_exn: no such file %S" path)

let exists t path = read t path <> None

(* Effective (merged) views. Layers are applied root-first so that nearer
   deltas shadow: a Source replaces, a Tombstone deletes. *)
let layers t =
  let rec go acc t =
    let acc = t :: acc in
    match t.parent with None -> acc | Some p -> go acc p
  in
  go [] t

let effective_files t : (string, string) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun layer ->
       Hashtbl.iter
         (fun p e ->
            match e with
            | Source c -> Hashtbl.replace tbl p c
            | Tombstone -> Hashtbl.remove tbl p)
         layer.files)
    (layers t);
  tbl

let effective_phantoms t : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun layer -> Hashtbl.iter (Hashtbl.replace tbl) layer.phantoms)
    (layers t);
  tbl

(* A deep copy sharing no mutable state: overlay chains are flattened into a
   fresh root image. *)
let copy t =
  let t' = create () in
  Hashtbl.iter (fun p c -> Hashtbl.replace t'.files p (Source c))
    (effective_files t);
  Hashtbl.iter (fun p b -> Hashtbl.replace t'.phantoms p b)
    (effective_phantoms t);
  t'

(* --- content addressing -------------------------------------------------- *)

let rec file_digest t path =
  match Hashtbl.find_opt t.files path with
  | Some (Source c) ->
    let memo =
      Mutex.lock t.dig_lock;
      let d = Hashtbl.find_opt t.digests path in
      Mutex.unlock t.dig_lock;
      d
    in
    (match memo with
     | Some d -> Some d
     | None ->
       (* hash outside the lock; a racing duplicate computes the same value *)
       let d = Digest.to_hex (Digest.string c) in
       Mutex.lock t.dig_lock;
       Hashtbl.replace t.digests path d;
       Mutex.unlock t.dig_lock;
       Some d)
  | Some Tombstone -> None
  | None ->
    (match t.parent with Some p -> file_digest p path | None -> None)

(* --- whole-image summaries ------------------------------------------------ *)

(* Image size counts each source file's bytes plus a per-file packaging
   overhead standing in for bytecode caches and package metadata. *)
let file_overhead = 512

(* The summary of [t]'s effective image, from the merged tables. The digest
   preimage lists every (path, file digest) pair in path order, then every
   phantom (path, size) in path order. *)
let build_summary t =
  let files = effective_files t in
  let paths =
    Hashtbl.fold (fun p _ acc -> p :: acc) files [] |> List.sort compare
  in
  let b = Buffer.create 1024 in
  let slots = Hashtbl.create (Hashtbl.length files) in
  let bytes = ref 0 in
  List.iter
    (fun p ->
       bytes := !bytes + String.length (Hashtbl.find files p) + file_overhead;
       Buffer.add_string b p;
       Buffer.add_char b '\x00';
       Hashtbl.replace slots p (Buffer.length b);
       (match file_digest t p with
        | Some d -> Buffer.add_string b d
        | None -> assert false (* p came from the effective view *));
       Buffer.add_char b '\x01')
    paths;
  let phantom_entries =
    Hashtbl.fold (fun p bytes acc -> (p, bytes) :: acc) (effective_phantoms t) []
    |> List.sort compare
  in
  List.iter
    (fun (p, n) ->
       bytes := !bytes + n;
       Buffer.add_char b '\x02';
       Buffer.add_string b p;
       Buffer.add_string b (string_of_int n))
    phantom_entries;
  let pre = Buffer.contents b in
  { sm_paths = paths; sm_count = List.length paths; sm_bytes = !bytes;
    sm_pre = pre; sm_slots = slots;
    sm_digest = Digest.to_hex (Digest.string pre) }

(* The summary of an overlay whose delta only rewrites files [base] already
   has, derived from [base]'s summary: same paths and slots, sizes adjusted
   by each rewrite, the rewritten files' digests patched into a copy of the
   preimage. [None] when the delta adds a path, removes one, or carries a
   phantom — the path set or the phantom list changes, so the caller
   rebuilds from the merged tables. *)
let derive_summary t ~base sm =
  if Hashtbl.length t.phantoms > 0 then None
  else if Hashtbl.length t.files = 0 then Some sm
  else
    let pre = Bytes.of_string sm.sm_pre in
    let bytes = ref sm.sm_bytes in
    let patch p e =
      match e, Hashtbl.find_opt sm.sm_slots p with
      | Source c, Some off ->
        bytes := !bytes + String.length c - String.length (read_exn base p);
        (match file_digest t p with
         | Some d -> Bytes.blit_string d 0 pre off (String.length d)
         | None -> assert false (* p is a Source of this layer *))
      | (Source _ | Tombstone), _ -> raise_notrace Exit
    in
    match Hashtbl.iter patch t.files with
    | () ->
      let pre = Bytes.unsafe_to_string pre in
      Some { sm with sm_bytes = !bytes; sm_pre = pre;
                     sm_digest = Digest.to_hex (Digest.string pre) }
    | exception Exit -> None

(* Build outside the lock (a parent's summary takes the parent's lock); a
   racing duplicate computes the same value and the first write wins. *)
let rec summary t =
  Mutex.lock t.dig_lock;
  let memo = t.summary in
  Mutex.unlock t.dig_lock;
  match memo with
  | Some sm -> sm
  | None ->
    let sm =
      match t.parent with
      | Some base ->
        (match derive_summary t ~base (summary base) with
         | Some sm -> sm
         | None -> build_summary t)
      | None -> build_summary t
    in
    Mutex.lock t.dig_lock;
    let sm =
      match t.summary with
      | Some won -> won
      | None -> t.summary <- Some sm; sm
    in
    Mutex.unlock t.dig_lock;
    sm

let paths t = (summary t).sm_paths

let file_count t = (summary t).sm_count

let image_bytes t = (summary t).sm_bytes

let image_mb t = float_of_int (image_bytes t) /. (1024.0 *. 1024.0)

(* Paths under a directory prefix, e.g. files_under t "site-packages/torch". *)
let files_under t prefix =
  let prefix = if String.length prefix > 0 then prefix ^ "/" else prefix in
  List.filter (fun p -> String.length p >= String.length prefix
                        && String.sub p 0 (String.length prefix) = prefix)
    (paths t)

let image_digest t = (summary t).sm_digest
