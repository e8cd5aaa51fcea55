(* Durability: the DD verdict journal (torn tails, corruption, digest
   mismatches) and the crash/resume bit-identity property — a run killed
   after any journal record and resumed reproduces the uninterrupted
   search's keep-set and every counter, sequentially and on a pool. *)

let digest = "test-run-digest"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ltrim-test-journal-%d-%d" (Unix.getpid ()) !n)
    in
    Trim.Record_log.mkdir_p dir;
    dir

let with_journal ?resume path f =
  let j = Trim.Journal.open_ ?resume ~path ~run_digest:digest () in
  Fun.protect ~finally:(fun () -> Trim.Journal.close j) (fun () -> f j)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

(* --- journal unit tests --------------------------------------------------- *)

let test_roundtrip () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Trim.Journal.append j ~key:"0,1,2" true;
      Trim.Journal.append j ~key:"0,1" false;
      Trim.Journal.append_keepset j "0,2");
  with_journal ~resume:true path (fun j ->
      Alcotest.(check (option bool)) "verdict replayed" (Some true)
        (Trim.Journal.find j "0,1,2");
      Alcotest.(check (option bool)) "negative verdict replayed" (Some false)
        (Trim.Journal.find j "0,1");
      Alcotest.(check (option bool)) "unknown key" None
        (Trim.Journal.find j "9");
      Alcotest.(check (option string)) "keep-set mark" (Some "0,2")
        (Trim.Journal.final_keepset j);
      Alcotest.(check int) "replay-table answers served" 2
        (Trim.Journal.replayed j);
      Alcotest.(check int) "nothing truncated" 0 (Trim.Journal.truncated j);
      (* idempotent completion mark: resume of a finished run *)
      Trim.Journal.append_keepset j "0,2")

let test_no_resume_resets () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j -> Trim.Journal.append j ~key:"0" true);
  with_journal path (fun j ->
      Alcotest.(check (option bool)) "reset without resume" None
        (Trim.Journal.find j "0"))

let test_torn_tail () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Trim.Journal.append j ~key:"0,1" true;
      Trim.Journal.append j ~key:"0" false);
  (* simulate a torn final record: half a line, no newline *)
  write_file path (read_file path ^ "o|2|0,2|T");
  with_journal ~resume:true path (fun j ->
      Alcotest.(check (option bool)) "prefix survives" (Some true)
        (Trim.Journal.find j "0,1");
      Alcotest.(check (option bool)) "torn record dropped" None
        (Trim.Journal.find j "0,2");
      Alcotest.(check int) "one truncated record" 1
        (Trim.Journal.truncated j);
      (* the repair rewrote the file: reopening again is clean *)
      Trim.Journal.append j ~key:"0,2" true);
  with_journal ~resume:true path (fun j ->
      Alcotest.(check int) "repaired file reopens clean" 0
        (Trim.Journal.truncated j);
      Alcotest.(check (option bool)) "post-repair append survives" (Some true)
        (Trim.Journal.find j "0,2"))

(* A crash between a record's last byte and its '\n': the record is torn,
   so it is dropped, and the next append must not land on its line. *)
let test_cut_final_newline () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Trim.Journal.append j ~key:"0,1" true;
      Trim.Journal.append j ~key:"0" false);
  let s = read_file path in
  write_file path (String.sub s 0 (String.length s - 1));
  with_journal ~resume:true path (fun j ->
      Alcotest.(check int) "one truncated record" 1 (Trim.Journal.truncated j);
      Alcotest.(check (option bool)) "torn record dropped" None
        (Trim.Journal.find j "0");
      Trim.Journal.append j ~key:"0,2" true);
  with_journal ~resume:true path (fun j ->
      Alcotest.(check int) "records" 2 (Trim.Journal.records j);
      Alcotest.(check (option bool)) "complete record kept" (Some true)
        (Trim.Journal.find j "0,1");
      Alcotest.(check (option bool)) "post-cut append kept" (Some true)
        (Trim.Journal.find j "0,2"))

let test_mid_corruption () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Trim.Journal.append j ~key:"a" true;
      Trim.Journal.append j ~key:"b" false;
      Trim.Journal.append j ~key:"c" true);
  (* flip a byte inside the middle record: checksum mismatch *)
  let s = read_file path in
  let lines = String.split_on_char '\n' s in
  let lines =
    List.mapi
      (fun i l ->
         if i = 2 then String.map (function 'b' -> 'X' | c -> c) l else l)
      lines
  in
  write_file path (String.concat "\n" lines);
  with_journal ~resume:true path (fun j ->
      Alcotest.(check (option bool)) "records before the corruption replay"
        (Some true) (Trim.Journal.find j "a");
      Alcotest.(check (option bool)) "corrupted record dropped" None
        (Trim.Journal.find j "b");
      Alcotest.(check (option bool))
        "records after the corruption dropped too (valid prefix only)" None
        (Trim.Journal.find j "c");
      Alcotest.(check int) "two truncated records" 2
        (Trim.Journal.truncated j))

let test_chaos_corrupt_helper () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Trim.Journal.append j ~key:"a" true;
      Trim.Journal.append j ~key:"b" false);
  Alcotest.(check bool) "helper found a record to corrupt" true
    (Trim.Chaos.corrupt_last_record path);
  with_journal ~resume:true path (fun j ->
      Alcotest.(check (option bool)) "first record survives" (Some true)
        (Trim.Journal.find j "a");
      Alcotest.(check (option bool)) "corrupted tail dropped" None
        (Trim.Journal.find j "b");
      Alcotest.(check int) "one truncated record" 1
        (Trim.Journal.truncated j))

let test_digest_mismatch () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j -> Trim.Journal.append j ~key:"a" true);
  let j =
    Trim.Journal.open_ ~resume:true ~path ~run_digest:"other-revision" ()
  in
  Fun.protect ~finally:(fun () -> Trim.Journal.close j) (fun () ->
      Alcotest.(check (option bool))
        "stale journal discarded on digest mismatch" None
        (Trim.Journal.find j "a"))

let test_bad_key_rejected () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Alcotest.check_raises "pipe in key"
        (Invalid_argument "Journal: record keys must not contain '|' or newlines")
        (fun () -> Trim.Journal.append j ~key:"a|b" true))

(* --- truncate, reopen, append, reopen (QCheck) ------------------------------

   Shared with the memo-store property in test_incremental.ml. A crash cuts
   a log file anywhere: at a fraction of its length, inside the header, or
   exactly before the final '\n'. Afterwards the log must hold exactly the
   records whose lines were '\n'-terminated before the cut. *)

type cut = Fraction of int | In_header of int | Before_final_newline

let arb_cut =
  QCheck.make
    ~print:(function
        | Fraction p -> Printf.sprintf "at %d/1000" p
        | In_header i -> Printf.sprintf "in the header at %d" i
        | Before_final_newline -> "before the final newline")
    QCheck.Gen.(
      frequency
        [ (4, map (fun p -> Fraction p) (0 -- 1000));
          (1, map (fun i -> In_header i) (0 -- 40));
          (1, return Before_final_newline) ])

(* Cut [contents] as [cut] says; returns the cut text and the number of
   records whose lines were complete in it. *)
let apply_cut contents cut =
  let len = String.length contents in
  let at =
    match cut with
    | Fraction p -> p * len / 1000
    | In_header i -> min i (String.index contents '\n')
    | Before_final_newline -> len - 1
  in
  let kept = String.sub contents 0 at in
  let lines = List.length (String.split_on_char '\n' kept) - 1 in
  (kept, max 0 (lines - 1))

let prop_torn_journal =
  QCheck.Test.make ~count:60
    ~name:"journal: truncate, resume, append, resume keeps exactly the \
           complete records"
    QCheck.(pair (list_of_size Gen.(1 -- 8) bool) arb_cut)
    (fun (verdicts, cut) ->
       let path = Filename.concat (fresh_dir ()) "torn.journal" in
       let keys = List.mapi (fun i _ -> string_of_int i) verdicts in
       with_journal path (fun j ->
           List.iter2 (fun key v -> Trim.Journal.append j ~key v) keys verdicts;
           Trim.Journal.append_keepset j "done");
       let kept, n = apply_cut (read_file path) cut in
       write_file path kept;
       with_journal ~resume:true path (fun j ->
           Trim.Journal.append j ~key:"new" true);
       with_journal ~resume:true path (fun j ->
           Trim.Journal.records j = n + 1
           && List.for_all2
                (fun (i, key) v ->
                   Trim.Journal.find j key = if i < n then Some v else None)
                (List.mapi (fun i k -> (i, k)) keys)
                verdicts
           && Trim.Journal.final_keepset j
              = (if n > List.length verdicts then Some "done" else None)
           && Trim.Journal.find j "new" = Some true))

(* --- kill/resume bit-identity (QCheck) ------------------------------------ *)

(* A deterministic synthetic oracle: a subset passes iff it contains every
   [important] element — same shape the DD unit tests use. *)
let oracle_of important subset =
  List.for_all (fun x -> List.mem x subset) important

(* Run a journaled search, killed after [kill_n] records (or to completion
   when the budget outlasts the run), then resume it. Returns the killed
   flag and the resumed run's result. *)
let kill_then_resume ~kill_n ~run path =
  Trim.Chaos.arm_kill_after kill_n;
  let killed =
    Fun.protect ~finally:Trim.Chaos.disarm (fun () ->
        with_journal path (fun j ->
            try
              ignore (run j);
              false
            with Trim.Chaos.Killed _ -> true))
  in
  let result = with_journal ~resume:true path (fun j -> run j) in
  (killed, result)

let seq_stats_eq (a : Trim.Dd.stats) (b : Trim.Dd.stats) =
  a.Trim.Dd.oracle_queries = b.Trim.Dd.oracle_queries
  && a.Trim.Dd.cache_hits = b.Trim.Dd.cache_hits
  && a.Trim.Dd.iterations = b.Trim.Dd.iterations

let gen_case =
  QCheck.make
    ~print:(fun (n, important, kill_n) ->
        Printf.sprintf "n=%d important=[%s] kill_n=%d" n
          (String.concat ";" (List.map string_of_int important))
          kill_n)
    QCheck.Gen.(
      sized_size (int_range 4 20) (fun n ->
          let* important =
            list_size (int_range 0 (min n 5)) (int_range 0 (n - 1))
          in
          let* kill_n = int_range 1 40 in
          return (n, List.sort_uniq compare important, kill_n)))

let prop_resume_sequential =
  QCheck.Test.make ~count:60 ~name:"kill/resume == uninterrupted (minimize)"
    gen_case
    (fun (n, important, kill_n) ->
       let items = List.init n Fun.id in
       let oracle = oracle_of important in
       let keep0, s0 = Trim.Dd.minimize ~oracle items in
       let path = Filename.concat (fresh_dir ()) "seq.journal" in
       let _killed, (keep1, s1) =
         kill_then_resume ~kill_n path
           ~run:(fun j -> Trim.Dd.minimize ~journal:j ~oracle items)
       in
       keep0 = keep1 && seq_stats_eq s0 s1)

let par_stats_eq (a : Trim.Dd.parallel_stats) (b : Trim.Dd.parallel_stats) =
  a = b   (* immutable record of ints: structural equality covers all six *)

let prop_resume_parallel workers =
  QCheck.Test.make ~count:30
    ~name:
      (Printf.sprintf "kill/resume == uninterrupted (minimize_parallel, %d \
                       workers)" workers)
    gen_case
    (fun (n, important, kill_n) ->
       let items = List.init n Fun.id in
       let oracle = oracle_of important in
       Parallel.Pool.with_pool ~domains:workers (fun pool ->
           let keep0, s0 =
             Trim.Dd.minimize_parallel ~workers ~pool ~oracle items
           in
           let path = Filename.concat (fresh_dir ()) "par.journal" in
           let _killed, (keep1, s1) =
             kill_then_resume ~kill_n path
               ~run:(fun j ->
                   Trim.Dd.minimize_parallel ~workers ~pool ~journal:j
                     ~oracle items)
           in
           keep0 = keep1 && par_stats_eq s0 s1))

(* A resumed-without-crash journal replays everything: zero fresh queries
   reach the oracle on the second run. *)
let test_full_replay_hits_no_oracle () =
  let items = List.init 12 Fun.id in
  let oracle = oracle_of [ 2; 7 ] in
  let path = Filename.concat (fresh_dir ()) "full.journal" in
  let keep0, _ =
    with_journal path (fun j -> Trim.Dd.minimize ~journal:j ~oracle items)
  in
  let fresh = ref 0 in
  let counting subset = incr fresh; oracle subset in
  let keep1, _ =
    with_journal ~resume:true path (fun j ->
        Trim.Dd.minimize ~journal:j ~oracle:counting items)
  in
  Alcotest.(check (list int)) "same keep-set" keep0 keep1;
  Alcotest.(check int) "no fresh oracle executions on full replay" 0 !fresh

let suite =
  [ ( "durability.journal",
      [ Alcotest.test_case "append/replay round trip" `Quick test_roundtrip;
        Alcotest.test_case "no resume resets the file" `Quick
          test_no_resume_resets;
        Alcotest.test_case "torn tail dropped and repaired" `Quick
          test_torn_tail;
        Alcotest.test_case "cut before the final newline: dropped, repaired"
          `Quick test_cut_final_newline;
        Alcotest.test_case "mid-file corruption keeps valid prefix" `Quick
          test_mid_corruption;
        Alcotest.test_case "chaos corrupt_last_record recovers" `Quick
          test_chaos_corrupt_helper;
        Alcotest.test_case "run-digest mismatch discards journal" `Quick
          test_digest_mismatch;
        Alcotest.test_case "reserved bytes in keys rejected" `Quick
          test_bad_key_rejected;
        Alcotest.test_case "full replay reaches the oracle zero times" `Quick
          test_full_replay_hits_no_oracle ] );
    ( "durability.resume",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_torn_journal; prop_resume_sequential; prop_resume_parallel 1;
          prop_resume_parallel 4 ] ) ]
