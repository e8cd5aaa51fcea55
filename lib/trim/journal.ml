(* Durable DD decision journal: a {!Record_log} codec.

   One journal file per module search. The header payload binds the file
   to a run digest (base image digest + module + candidate list + backend),
   so a stale journal from a different revision or job layout is discarded
   instead of replayed. Record bodies are

     o|<seq>|<subset key>|<T or F>|<md5>      one oracle verdict
     k|<seq>|<final keep-set key>|<md5>        completion mark

   A resumed DD run answers its queries from the replay table in place of
   the oracle, reproducing the uninterrupted run's keep-set and counters
   bit for bit. After each flushed append the chaos harness is notified,
   which is how the simulated kill-after-record-N lands exactly on a
   durable boundary. *)

let magic = "ltrim-journal/1"

let c_appended = Obs.Metrics.counter Obs.Metrics.global "trim.journal.appended"
let c_replayed = Obs.Metrics.counter Obs.Metrics.global "trim.journal.replayed"
let c_truncated = Obs.Metrics.counter Obs.Metrics.global "trim.journal.truncated"

type t = {
  log : Record_log.t;
  replay : (string, bool) Hashtbl.t;
  mutable keepset : string option;    (* completion mark, when present *)
  mutable replayed_served : int;      (* replay-table answers handed out *)
}

(* DD keys are index lists ("3,7,19"), so this never fires in practice. *)
let check_key = Record_log.check_field "Journal: record keys"

(* Decode one record body into the replay table or the completion mark. *)
let decode replay keepset kind line ~pos ~len =
  match (kind, String.split_on_char '|' (String.sub line pos len)) with
  | 'o', [ key; ("T" | "F") as v ] ->
    Hashtbl.replace replay key (v = "T");
    true
  | 'k', [ keys ] ->
    keepset := Some keys;
    true
  | _ -> false

(* Open (or create) the journal at [path] for a search identified by
   [run_digest]. With [resume] an existing journal of this run is
   replayed; otherwise the file starts fresh. *)
let open_ ?(resume = false) ~path ~run_digest () =
  let replay = Hashtbl.create 256 and keepset = ref None in
  let log =
    Record_log.open_ ~replay:resume ~path ~magic ~payload:run_digest
      (decode replay keepset)
  in
  Record_log.count ~by:(Record_log.truncated log) c_truncated;
  { log; replay; keepset = !keepset; replayed_served = 0 }

(* Replayed verdict for [key], if the journal recorded one. *)
let find t key =
  Record_log.locked t.log (fun () ->
      match Hashtbl.find_opt t.replay key with
      | Some v ->
        t.replayed_served <- t.replayed_served + 1;
        Record_log.count c_replayed;
        Some v
      | None -> None)

(* Called with the log's lock held. *)
let append_record t kind body =
  Record_log.append t.log kind body;
  Record_log.count c_appended;
  (* the record is durable; a chaos kill lands exactly here *)
  Chaos.note_journal_append ()

(* Record one oracle verdict. Durable (flushed) before returning. *)
let append t ~key verdict =
  check_key key;
  Record_log.locked t.log (fun () ->
      append_record t 'o' (key ^ if verdict then "|T" else "|F"))

(* Record the final keep-set — the completion mark. Idempotent on resume:
   a replayed identical mark is not re-appended. *)
let append_keepset t keys =
  check_key keys;
  Record_log.locked t.log (fun () ->
      match t.keepset with
      | Some k when String.equal k keys -> ()
      | _ ->
        t.keepset <- Some keys;
        append_record t 'k' keys)

let final_keepset t = Record_log.locked t.log (fun () -> t.keepset)

let replayed t = Record_log.locked t.log (fun () -> t.replayed_served)

let truncated t = Record_log.truncated t.log

let records t = Record_log.records t.log

let close t = Record_log.close t.log

(* --- per-search spec and process-wide configuration -----------------------

   The pipeline hands the debloater a [spec] (directory + resume flag); the
   debloater derives the per-module path and run digest. [configure] is the
   CLI's way to journal experiment runs whose pipeline options it cannot
   reach (the experiment registry builds its own): [Pipeline.run] falls back
   to the configured directory when its options carry none. *)

type spec = { journal_dir : string; journal_resume : bool }

let conf = ref (None : spec option)
let conf_lock = Mutex.create ()

let configure ~dir ~resume =
  Mutex.lock conf_lock;
  conf :=
    (match dir with
     | Some d -> Some { journal_dir = d; journal_resume = resume }
     | None -> None);
  Mutex.unlock conf_lock

let configured () =
  Mutex.lock conf_lock;
  let c = !conf in
  Mutex.unlock conf_lock;
  c
