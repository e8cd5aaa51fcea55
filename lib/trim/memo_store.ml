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

   Durability model follows {!Journal}: every record is checksummed and
   flushed before [add] returns, and a reload keeps only the valid record
   prefix — a torn or corrupt tail is dropped and the file repaired via
   write-temp-then-rename, never replayed. Unlike a DD journal the file has
   no run digest in its header: cross-revision sharing is the whole point,
   and the per-record content addressing already provides the safety a run
   digest buys a journal.

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

let counters_lock = Mutex.create ()
let c_loaded = Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.loaded"
let c_appended =
  Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.appended"
let c_truncated =
  Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.truncated"

let count ?by c =
  Mutex.lock counters_lock;
  Obs.Metrics.incr ?by c;
  Mutex.unlock counters_lock

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
      else if i + 1 >= n then None
      else
        match s.[i + 1] with
        | '\\' -> Buffer.add_char b '\\'; go (i + 2)
        | 'n' -> Buffer.add_char b '\n'; go (i + 2)
        | 'r' -> Buffer.add_char b '\r'; go (i + 2)
        | 'p' -> Buffer.add_char b '|'; go (i + 2)
        | _ -> None
    in
    go 0

(* --- the store ------------------------------------------------------------ *)

(* Values are held escaped, as they appear in the file: a replayed record is
   verified at open, but only decoded when [find] returns it. *)
type t = {
  path : string;
  mutable oc : out_channel option;
  table : (string, string) Hashtbl.t;  (* key -> escaped value *)
  mutable next_seq : int;
  mutable loaded_records : int;
  mutable appended_records : int;
  mutable truncated_records : int;
  buf : Buffer.t;
  lock : Mutex.t;
}

let checksum payload = Digest.to_hex (Digest.string payload)

let check_key key =
  if String.exists (fun c -> c = '|' || c = '\n' || c = '\r') key then
    invalid_arg "Memo_store: keys must not contain '|' or newlines"

(* [s.[p, p + 32)] is the lower-case hex of digest [d], as [Digest.to_hex]
   writes it. *)
let hex_matches d s p =
  let hex = "0123456789abcdef" in
  let rec go k =
    k = 16
    || (let b = Char.code d.[k] in
        s.[p + (2 * k)] = hex.[b lsr 4]
        && s.[p + (2 * k) + 1] = hex.[b land 15]
        && go (k + 1))
  in
  go 0

(* Parse [line] as the record with sequence number [seq]:
   o|<seq>|<key>|<escaped value>|<md5 of everything before the last '|'>,
   with exactly four '|' and only well-formed escapes in the value (so that
   [unescape] succeeds on it). One pass finds the fields and checks the
   escapes; one [Digest.substring] checks the sum. Returns the key and the
   escaped value. *)
let parse_record line ~seq =
  let len = String.length line in
  if len < 2 || line.[0] <> 'o' || line.[1] <> '|' then None
  else begin
    let j = ref 2 and bars = ref 1 and ok = ref true in
    let p2 = ref 0 and p3 = ref 0 and p4 = ref 0 in
    while !ok && !j < len do
      (match String.unsafe_get line !j with
       | '|' ->
         incr bars;
         if !bars = 2 then p2 := !j
         else if !bars = 3 then p3 := !j
         else if !bars = 4 then p4 := !j
         else ok := false
       | '\\' when !bars = 3 ->
         if !j + 1 < len
         && (match String.unsafe_get line (!j + 1) with
             | '\\' | 'n' | 'r' | 'p' -> true
             | _ -> false)
         then incr j
         else ok := false
       | _ -> ());
      incr j
    done;
    let p2 = !p2 and p3 = !p3 and p4 = !p4 in
    if (not !ok) || !bars <> 4 || len - p4 - 1 <> 32
       || int_of_string_opt (String.sub line 2 (p2 - 2)) <> Some seq
       || not (hex_matches (Digest.substring line 0 p4) line (p4 + 1))
    then None
    else
      Some (String.sub line (p2 + 1) (p3 - p2 - 1),
            String.sub line (p3 + 1) (p4 - p3 - 1))
  end

(* Open (or create) the store under [dir]. An existing file is always
   replayed: the valid record prefix fills the table, any invalid suffix
   (torn tail, flipped bytes, missing lines) is dropped and the file is
   repaired atomically. A foreign or torn header starts the file over. *)
let open_ ~dir =
  Journal.mkdir_p dir;
  let path = Filename.concat dir file_name in
  let t =
    { path;
      oc = None;
      table = Hashtbl.create 1024;
      next_seq = 0;
      loaded_records = 0;
      appended_records = 0;
      truncated_records = 0;
      buf = Buffer.create 256;
      lock = Mutex.create () }
  in
  (* Replay line by line. Returns [None] for a foreign or torn header, else
     the number of lines dropped and the length of the valid prefix. *)
  let replay ic =
    match In_channel.input_line ic with
    | Some header when String.equal header magic ->
      let rec records prefix =
        match In_channel.input_line ic with
        | None -> (0, prefix)
        | Some line ->
          match parse_record line ~seq:t.next_seq with
          | Some (key, value) ->
            Hashtbl.replace t.table key value;
            t.next_seq <- t.next_seq + 1;
            records (prefix + String.length line + 1)
          | None ->
            let rec rest n =
              match In_channel.input_line ic with
              | None -> n
              | Some _ -> rest (n + 1)
            in
            (rest 1, prefix)
      in
      Some (records (String.length magic + 1))
    | _ -> None
  in
  let existing =
    if Sys.file_exists path then
      In_channel.with_open_bin path (fun ic ->
          match replay ic with
          | Some (dropped, prefix) when dropped > 0 ->
            (* every kept line ended in '\n', so the prefix is exactly the
               header and the kept records *)
            In_channel.seek ic 0L;
            Some (dropped, Some (really_input_string ic prefix))
          | Some (dropped, _) -> Some (dropped, None)
          | None -> None)
    else None
  in
  (match existing with
   | Some (dropped, repaired) ->
     t.loaded_records <- t.next_seq;
     t.truncated_records <- dropped;
     count ~by:t.loaded_records c_loaded;
     Option.iter
       (fun contents ->
          count ~by:dropped c_truncated;
          Journal.write_file_atomic ~path contents)
       repaired;
     t.oc <-
       Some (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path)
   | None ->
     (* fresh start (or unreadable header): a torn header reads as foreign
        on the next open and the file starts over, losing nothing *)
     let oc =
       open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
         0o644 path
     in
     output_string oc magic;
     output_char oc '\n';
     flush oc;
     t.oc <- Some oc);
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  Option.bind (locked t (fun () -> Hashtbl.find_opt t.table key)) unescape

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

(* Record one observation durably (flushed before returning). Idempotent:
   a key already in the store is never re-appended — the file stays
   append-only and duplicate-free even when shared across many runs. *)
let add t ~key value =
  check_key key;
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        match t.oc with
        | None -> invalid_arg "Memo_store: already closed"
        | Some oc ->
          let buf = t.buf in
          Buffer.clear buf;
          Buffer.add_string buf "o|";
          Buffer.add_string buf (string_of_int t.next_seq);
          Buffer.add_char buf '|';
          Buffer.add_string buf key;
          Buffer.add_char buf '|';
          let escaped = escape value in
          Buffer.add_string buf escaped;
          let sum = checksum (Buffer.contents buf) in
          Buffer.add_char buf '|';
          Buffer.add_string buf sum;
          Buffer.add_char buf '\n';
          Buffer.output_buffer oc buf;
          flush oc;
          Hashtbl.replace t.table key escaped;
          t.next_seq <- t.next_seq + 1;
          t.appended_records <- t.appended_records + 1;
          count c_appended
      end)

let size t = locked t (fun () -> Hashtbl.length t.table)

let loaded t = locked t (fun () -> t.loaded_records)

let appended t = locked t (fun () -> t.appended_records)

let truncated t = locked t (fun () -> t.truncated_records)

let path t = t.path

let close t =
  locked t (fun () ->
      match t.oc with
      | Some oc ->
        flush oc;
        close_out oc;
        t.oc <- None
      | None -> ())
