(* Persistent on-disk oracle memo.

   One append-only file (`observations.memo`) per store directory holding
   content-addressed oracle observations:

     ltrim-memo/1
     o|<seq>|<key>|<escaped canonical output>|<md5 of the payload>

   The key is {!Oracle.test_key} — an md5 over everything the canonical
   output can depend on (backend, optimizer variant, effective image digest,
   entry point, test-case inputs) — so entries are revision-safe by
   construction and one store can be shared across applications and process
   restarts: a key either means exactly one observation or is absent.

   The file is a {!Record_log}: every record is sealed and flushed before
   [add] returns, and a reload keeps only the valid record prefix — a torn
   or corrupt tail is dropped and the file repaired, never replayed. Unlike
   a DD journal the header carries no run digest: cross-revision sharing is
   the whole point, and the per-record content addressing already provides
   the safety a run digest buys a journal.

   Canonical outputs are arbitrary interpreter text (newlines and '|'
   included), so values travel escaped: '\\' -> "\\\\", '\n' -> "\\n",
   '\r' -> "\\r", '|' -> "\\p". The escaping is injective, so a checksummed
   record decodes to exactly the stored observation or not at all.

   Metrics (Obs.Metrics.global): oracle.memo_store.loaded (records replayed
   at open), oracle.memo_store.appended, oracle.memo_store.truncated
   (invalid-suffix lines dropped at open). Store *hits* are counted by the
   in-memory {!Oracle.Cache} sitting on top (oracle.memo.store_hits). *)

let magic = "ltrim-memo/1"

let file_name = "observations.memo"

let c_loaded = Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.loaded"
let c_appended =
  Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.appended"
let c_truncated =
  Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.truncated"

(* --- value escaping ------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '|' -> Buffer.add_string b "\\p"
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The character the escape "\\<c>" stands for. *)
let unescaped = function
  | '\\' -> Some '\\'
  | 'n' -> Some '\n'
  | 'r' -> Some '\r'
  | 'p' -> Some '|'
  | _ -> None

(* Inverse of [escape]; [None] on any malformed escape (a corrupt record
   must never decode to a plausible-but-wrong observation). *)
let unescape s =
  if not (String.contains s '\\') then Some s
  else
    let n = String.length s in
    let b = Buffer.create n in
    let rec go i =
      if i >= n then Some (Buffer.contents b)
      else if s.[i] <> '\\' then begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
      else
        match if i + 1 < n then unescaped s.[i + 1] else None with
        | Some c -> Buffer.add_char b c; go (i + 2)
        | None -> None
    in
    go 0

(* --- the store ------------------------------------------------------------ *)

(* Values are held escaped, as they appear in the file: a replayed record is
   verified at open, but only decoded when [find] returns it. *)
type t = {
  path : string;
  log : Record_log.t;
  table : (string, string) Hashtbl.t;  (* key -> escaped value; log lock *)
}

let check_key = Record_log.check_field "Memo_store: keys"

(* Position of the '|' splitting the body [line.[i, stop)] into a key and an
   escaped value, or -1 unless there is exactly one and every escape in the
   value is well-formed (so that [unescape] succeeds on it). *)
let rec split_body line i stop bar =
  if i >= stop then bar
  else
    match String.unsafe_get line i with
    | '|' -> if bar >= 0 then -1 else split_body line (i + 1) stop i
    | '\\' when bar >= 0 ->
      if i + 1 < stop && Option.is_some (unescaped line.[i + 1]) then
        split_body line (i + 2) stop bar
      else -1
    | _ -> split_body line (i + 1) stop bar

let decode table kind line ~pos ~len =
  let bar = if kind = 'o' then split_body line pos (pos + len) (-1) else -1 in
  bar >= 0
  && begin
    Hashtbl.replace table
      (String.sub line pos (bar - pos))
      (String.sub line (bar + 1) (pos + len - bar - 1));
    true
  end

(* Open (or create) the store under [dir]; an existing file is always
   replayed. *)
let open_ ~dir =
  let path = Filename.concat dir file_name in
  let table = Hashtbl.create 1024 in
  let log = Record_log.open_ ~path ~magic (decode table) in
  Record_log.count ~by:(Record_log.loaded log) c_loaded;
  Record_log.count ~by:(Record_log.truncated log) c_truncated;
  { path; log; table }

let find t key =
  Option.bind
    (Record_log.locked t.log (fun () -> Hashtbl.find_opt t.table key))
    unescape

(* Record one observation durably (flushed before returning). Idempotent:
   a key already in the store is never re-appended — the file stays
   append-only and duplicate-free even when shared across many runs. *)
let add t ~key value =
  check_key key;
  Record_log.locked t.log (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        let escaped = escape value in
        Record_log.append t.log 'o' (key ^ "|" ^ escaped);
        Hashtbl.replace t.table key escaped;
        Record_log.count c_appended
      end)

let size t = Record_log.locked t.log (fun () -> Hashtbl.length t.table)

let loaded t = Record_log.loaded t.log

let appended t = Record_log.records t.log - Record_log.loaded t.log

let truncated t = Record_log.truncated t.log

let path t = t.path

let close t = Record_log.close t.log
