(* Incremental re-debloating: the persistent observation memo (torn tails,
   escaping, capacity/eviction, store promotion), the run manifest, the
   DD warm-start counters, and the headline warm == cold keep-set
   equivalence at any job count. *)

open Trim

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ltrim-test-memo-%d-%d" (Unix.getpid ()) !n)
    in
    Record_log.mkdir_p dir;
    dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let with_store dir f =
  let s = Memo_store.open_ ~dir in
  Fun.protect ~finally:(fun () -> Memo_store.close s) (fun () -> f s)

(* --- memo store ----------------------------------------------------------- *)

let store_tests =
  [ Alcotest.test_case "round-trip across reopen" `Quick (fun () ->
        let dir = fresh_dir () in
        with_store dir (fun s ->
            Memo_store.add s ~key:"k1" "plain";
            Memo_store.add s ~key:"k2" "pipes|and\nnewlines\\mixed";
            Memo_store.add s ~key:"k2" "ignored (first write wins)";
            Alcotest.(check int) "appended" 2 (Memo_store.appended s));
        with_store dir (fun s ->
            Alcotest.(check int) "loaded" 2 (Memo_store.loaded s);
            Alcotest.(check (option string)) "k1" (Some "plain")
              (Memo_store.find s "k1");
            Alcotest.(check (option string)) "k2"
              (Some "pipes|and\nnewlines\\mixed")
              (Memo_store.find s "k2");
            Alcotest.(check (option string)) "exact match only" None
              (Memo_store.find s "k");
            Alcotest.(check int) "clean load" 0 (Memo_store.truncated s)));
    Alcotest.test_case "torn tail dropped and repaired" `Quick (fun () ->
        let dir = fresh_dir () in
        let path =
          with_store dir (fun s ->
              Memo_store.add s ~key:"a" "1";
              Memo_store.add s ~key:"b" "2";
              Memo_store.path s)
        in
        write_file path (read_file path ^ "o|2|c|3|deadbeef");
        with_store dir (fun s ->
            Alcotest.(check int) "prefix loaded" 2 (Memo_store.loaded s);
            Alcotest.(check int) "tail truncated" 1 (Memo_store.truncated s);
            Alcotest.(check (option string)) "torn key absent" None
              (Memo_store.find s "c");
            (* repair rewrote the file: the store accepts appends again *)
            Memo_store.add s ~key:"c" "3");
        with_store dir (fun s ->
            Alcotest.(check int) "repaired reopen" 3 (Memo_store.loaded s);
            Alcotest.(check int) "clean" 0 (Memo_store.truncated s)));
    (* a crash between a record's last byte and its '\n': the record is
       torn, so it is dropped, and the next add must not land on its line *)
    Alcotest.test_case "cut before the final newline: dropped, repaired"
      `Quick (fun () ->
        let dir = fresh_dir () in
        let path =
          with_store dir (fun s ->
              Memo_store.add s ~key:"a" "1";
              Memo_store.add s ~key:"b" "2";
              Memo_store.path s)
        in
        let s = read_file path in
        write_file path (String.sub s 0 (String.length s - 1));
        with_store dir (fun s ->
            Alcotest.(check int) "prefix loaded" 1 (Memo_store.loaded s);
            Alcotest.(check int) "torn record truncated" 1
              (Memo_store.truncated s);
            Memo_store.add s ~key:"c" "3");
        with_store dir (fun s ->
            Alcotest.(check int) "reopen" 2 (Memo_store.loaded s);
            Alcotest.(check (option string)) "a" (Some "1")
              (Memo_store.find s "a");
            Alcotest.(check (option string)) "torn b" None
              (Memo_store.find s "b");
            Alcotest.(check (option string)) "c" (Some "3")
              (Memo_store.find s "c")));
    Alcotest.test_case "foreign header starts fresh" `Quick (fun () ->
        let dir = fresh_dir () in
        let path = Filename.concat dir Memo_store.file_name in
        write_file path "some-other-format/9\no|0|k|v|x\n";
        with_store dir (fun s ->
            Alcotest.(check int) "nothing loaded" 0 (Memo_store.loaded s);
            Alcotest.(check (option string)) "foreign record ignored" None
              (Memo_store.find s "k");
            Memo_store.add s ~key:"fresh" "1");
        with_store dir (fun s ->
            Alcotest.(check (option string)) "fresh store works"
              (Some "1") (Memo_store.find s "fresh"))) ]

(* A record is only replayed when it is well-formed, not just checksummed:
   each bad line below carries a correct md5 of everything before its last
   '|', and it and everything after it are dropped. *)
let checksummed_malformed_tests =
  let record payload = payload ^ "|" ^ Digest.to_hex (Digest.string payload) in
  List.map
    (fun (name, bad) ->
       Alcotest.test_case ("checksummed but " ^ name) `Quick (fun () ->
           let dir = fresh_dir () in
           write_file
             (Filename.concat dir Memo_store.file_name)
             (String.concat "\n"
                [ Memo_store.magic; record "o|0|a|1"; record bad;
                  record "o|2|c|3"; "" ]);
           with_store dir (fun s ->
               Alcotest.(check int) "loaded" 1 (Memo_store.loaded s);
               Alcotest.(check int) "truncated" 2 (Memo_store.truncated s);
               Alcotest.(check (option string)) "valid record" (Some "1")
                 (Memo_store.find s "a");
               Alcotest.(check (option string)) "later record dropped" None
                 (Memo_store.find s "c"))))
    [ ("a malformed escape", "o|1|b|x\\qy");
      ("a trailing backslash", "o|1|b|x\\");
      ("an extra field", "o|1|b|x|y");
      ("a missing field", "o|1|b");
      ("the wrong sequence number", "o|7|b|2");
      ("another record kind", "j|1|b|2") ]

(* Kill-at-any-byte property: after a cut anywhere, a reopen, one append
   and a second reopen, the store holds exactly the records whose lines
   were complete before the cut — each value exact — plus the new one. *)
let qcheck_truncate =
  let gen_values =
    QCheck.(list_of_size Gen.(1 -- 8) (string_gen_of_size Gen.(0 -- 12) Gen.char))
  in
  QCheck.Test.make ~count:60
    ~name:"memo store: any truncation is a valid prefix"
    QCheck.(pair gen_values Test_durability.arb_cut)
    (fun (values, cut) ->
      let dir = fresh_dir () in
      let keys = List.mapi (fun i _ -> Printf.sprintf "key%d" i) values in
      let path =
        with_store dir (fun s ->
            List.iter2 (fun k v -> Memo_store.add s ~key:k v) keys values;
            Memo_store.path s)
      in
      let kept, n = Test_durability.apply_cut (read_file path) cut in
      write_file path kept;
      with_store dir (fun s -> Memo_store.add s ~key:"post-crash" "ok");
      with_store dir (fun s ->
          Memo_store.loaded s = n + 1
          && List.for_all2
               (fun (i, k) v ->
                  Memo_store.find s k = if i < n then Some v else None)
               (List.mapi (fun i k -> (i, k)) keys)
               values
          && Memo_store.find s "post-crash" = Some "ok"))

let qcheck_escape =
  QCheck.Test.make ~count:200 ~name:"memo store: escape round-trips"
    QCheck.(string_gen_of_size Gen.(0 -- 40) Gen.char)
    (fun s ->
      let e = Memo_store.escape s in
      (* escaped text is record-safe: no field or line separators left *)
      String.for_all (fun c -> c <> '|' && c <> '\n' && c <> '\r') e
      && Memo_store.unescape e = Some s)

(* --- cache capacity, eviction, store promotion ---------------------------- *)

let tiny = Workloads.Suite.tiny_app ()

(* a twin with a different image digest, so its memo keys are distinct *)
let tiny_b =
  let d = Platform.Deployment.overlay tiny in
  let path = "site-packages/tinylib/__init__.py" in
  Minipy.Vfs.add_file d.Platform.Deployment.vfs path
    (Minipy.Vfs.read_exn d.Platform.Deployment.vfs path ^ "\n# twin\n");
  d

let tests_per_observe = List.length tiny.Platform.Deployment.test_cases

let cache_tests =
  [ Alcotest.test_case "capacity bound evicts FIFO" `Quick (fun () ->
        let c = Oracle.Cache.create () in
        Oracle.Cache.set_capacity c (Some tests_per_observe);
        ignore (Oracle.observe ~cache:c tiny);
        Alcotest.(check int) "full" tests_per_observe (Oracle.Cache.size c);
        ignore (Oracle.observe ~cache:c tiny_b);
        Alcotest.(check int) "still bounded" tests_per_observe
          (Oracle.Cache.size c);
        Alcotest.(check int) "evictions counted" tests_per_observe
          (Oracle.Cache.evicted c);
        (* the evicted entries are gone: re-observing misses again *)
        let misses = Oracle.Cache.misses c in
        ignore (Oracle.observe ~cache:c tiny);
        Alcotest.(check int) "evicted keys miss"
          (misses + tests_per_observe) (Oracle.Cache.misses c);
        Alcotest.(check (option int)) "capacity readable"
          (Some tests_per_observe) (Oracle.Cache.capacity c));
    Alcotest.test_case "capacity < 1 rejected" `Quick (fun () ->
        let c = Oracle.Cache.create () in
        Alcotest.check_raises "zero"
          (Invalid_argument "Oracle.Cache.set_capacity: cap < 1")
          (fun () -> Oracle.Cache.set_capacity c (Some 0)));
    Alcotest.test_case "evicted keys re-promote from the store" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let store = Memo_store.open_ ~dir in
        Fun.protect ~finally:(fun () -> Memo_store.close store) (fun () ->
            let c = Oracle.Cache.create () in
            Oracle.Cache.attach_store c (Some store);
            Oracle.Cache.set_capacity c (Some tests_per_observe);
            ignore (Oracle.observe ~cache:c tiny);
            ignore (Oracle.observe ~cache:c tiny_b);   (* evicts tiny's *)
            let hits = Oracle.Cache.hits c in
            ignore (Oracle.observe ~cache:c tiny);
            Alcotest.(check int) "hits despite eviction"
              (hits + tests_per_observe) (Oracle.Cache.hits c);
            Alcotest.(check int) "served by the store" tests_per_observe
              (Oracle.Cache.store_hits c)));
    Alcotest.test_case "store survives a cache clear" `Quick (fun () ->
        let dir = fresh_dir () in
        let store = Memo_store.open_ ~dir in
        Fun.protect ~finally:(fun () -> Memo_store.close store) (fun () ->
            let c = Oracle.Cache.create () in
            Oracle.Cache.attach_store c (Some store);
            ignore (Oracle.observe ~cache:c tiny);
            let persisted = Memo_store.size store in
            Alcotest.(check bool) "observations persisted" true
              (persisted >= tests_per_observe);
            Oracle.Cache.clear c;
            Alcotest.(check int) "memory empty" 0 (Oracle.Cache.size c);
            ignore (Oracle.observe ~cache:c tiny);
            Alcotest.(check int) "answered from the store"
              tests_per_observe (Oracle.Cache.store_hits c))) ]

(* --- search digest: cross-variant and cross-revision isolation ------------ *)

let digest_of d =
  let module_name = "tinylib" in
  let file = "site-packages/tinylib/__init__.py" in
  Debloater.module_search_digest d ~module_name ~file
    ~protected_list:[ "keep_me" ] ~candidates:[ "a"; "b" ]

let digest_tests =
  [ Alcotest.test_case "digest is deterministic" `Quick (fun () ->
        Alcotest.(check string) "same inputs, same digest" (digest_of tiny)
          (digest_of tiny));
    Alcotest.test_case "editing the module changes the digest" `Quick
      (fun () ->
        Alcotest.(check bool) "twin differs" false
          (String.equal (digest_of tiny) (digest_of tiny_b)));
    Alcotest.test_case "lazy variant never shares a digest" `Quick (fun () ->
        let lazy_d = Platform.Deployment.overlay tiny in
        Minipy.Vfs.add_file lazy_d.Platform.Deployment.vfs
          Minipy.Interp.lazy_manifest_file "lazy tinylib\n";
        Alcotest.(check bool) "eager vs lazy" false
          (String.equal (digest_of tiny) (digest_of lazy_d));
        (* and two distinct stub configurations differ from each other *)
        let lazy2 = Platform.Deployment.overlay tiny in
        Minipy.Vfs.add_file lazy2.Platform.Deployment.vfs
          Minipy.Interp.lazy_manifest_file "lazy tinylib\npreload tinylib\n";
        Alcotest.(check bool) "lazy vs lazy'" false
          (String.equal (digest_of lazy_d) (digest_of lazy2)));
    Alcotest.test_case "candidate split is part of the digest" `Quick
      (fun () ->
        let d1 =
          Debloater.module_search_digest tiny ~module_name:"tinylib"
            ~file:"site-packages/tinylib/__init__.py" ~protected_list:[]
            ~candidates:[ "a"; "b" ]
        and d2 =
          Debloater.module_search_digest tiny ~module_name:"tinylib"
            ~file:"site-packages/tinylib/__init__.py" ~protected_list:[ "a" ]
            ~candidates:[ "b" ]
        in
        Alcotest.(check bool) "protected vs candidate" false
          (String.equal d1 d2)) ]

(* --- manifest ------------------------------------------------------------- *)

let sample_manifest () =
  { Manifest.mf_app = "tiny";
    mf_backend = "ast";
    mf_variant = "eager";
    mf_scoring = "combined";
    mf_k = 3;
    mf_input_digest = "in";
    mf_output_digest = "out";
    mf_ranked = [ "m1"; "m2" ];
    mf_modules =
      [ { Manifest.me_module = "m1"; me_file = "f1"; me_digest = "d1";
          me_removed = [ "x"; "y" ]; me_queries = 7; me_cache_hits = 2;
          me_iterations = 3 };
        { Manifest.me_module = "m2"; me_file = "<none>";
          me_digest = Debloater.builtin_digest; me_removed = [];
          me_queries = 0; me_cache_hits = 0; me_iterations = 0 } ] }

let manifest_tests =
  [ Alcotest.test_case "render/parse round-trip" `Quick (fun () ->
        let m = sample_manifest () in
        match Manifest.parse (Manifest.render m) with
        | None -> Alcotest.fail "round-trip failed"
        | Some m' ->
          Alcotest.(check bool) "equal" true (m = m'));
    Alcotest.test_case "any corrupt line rejects the whole manifest" `Quick
      (fun () ->
        let text = Manifest.render (sample_manifest ()) in
        let lines = String.split_on_char '\n' text in
        (* flipping any single line must fail closed (cold run), never
           yield a different parse *)
        List.iteri
          (fun i _ ->
             let mutated =
               String.concat "\n"
                 (List.mapi
                    (fun j l -> if i = j && l <> "" then l ^ "x" else l)
                    lines)
             in
             if not (String.equal mutated text) then
               Alcotest.(check bool)
                 (Printf.sprintf "line %d corrupt -> None" i)
                 true
                 (Manifest.parse mutated = None))
          lines);
    Alcotest.test_case "save/load round-trip" `Quick (fun () ->
        let path = Filename.concat (fresh_dir ()) "app.manifest" in
        Manifest.save ~path (sample_manifest ());
        match Manifest.load ~path with
        | None -> Alcotest.fail "load failed"
        | Some m ->
          Alcotest.(check (option (list string))) "module entry found"
            (Some [ "x"; "y" ])
            (Option.map
               (fun (e : Manifest.module_entry) -> e.Manifest.me_removed)
               (Manifest.find_module m "m1"));
          Alcotest.(check (option string)) "missing path" None
            (Option.map (fun m -> m.Manifest.mf_app)
               (Manifest.load ~path:(path ^ ".nope")))) ]

(* --- DD warm-start counters ----------------------------------------------- *)

let dd_tests =
  [ Alcotest.test_case "seed hit: one confirming query counted" `Quick
      (fun () ->
        (* oracle: passes iff 1 and 2 are kept *)
        let oracle keep = List.mem 1 keep && List.mem 2 keep in
        let keep, st, hit =
          Dd.minimize_with_seed ~oracle ~seed:[ 1; 2 ] [ 1; 2; 3; 4 ]
        in
        Alcotest.(check bool) "seed passed" true hit;
        Alcotest.(check (list int)) "keep-set" [ 1; 2 ] (List.sort compare keep);
        Alcotest.(check int) "one warm-start query" 1 st.Dd.ws_queries;
        Alcotest.(check int) "one warm-start hit" 1 st.Dd.ws_hits);
    Alcotest.test_case "seed miss: falls back to full ddmin" `Quick (fun () ->
        let oracle keep = List.mem 1 keep && List.mem 2 keep in
        let keep, st, hit =
          Dd.minimize_with_seed ~oracle ~seed:[ 3 ] [ 1; 2; 3; 4 ]
        in
        Alcotest.(check bool) "seed failed" false hit;
        Alcotest.(check (list int)) "keep-set" [ 1; 2 ] (List.sort compare keep);
        Alcotest.(check int) "query spent on the seed" 1 st.Dd.ws_queries;
        Alcotest.(check int) "no hit" 0 st.Dd.ws_hits);
    Alcotest.test_case "plain minimize reports zero warm-start traffic" `Quick
      (fun () ->
        let oracle keep = List.mem 1 keep in
        let _, st = Dd.minimize ~oracle [ 1; 2; 3 ] in
        Alcotest.(check int) "no ws queries" 0 st.Dd.ws_queries;
        Alcotest.(check int) "no ws hits" 0 st.Dd.ws_hits) ]

(* --- warm == cold equivalence through the pipeline ------------------------ *)

let fingerprint (r : Pipeline.report) =
  String.concat "|"
    (Minipy.Vfs.image_digest r.Pipeline.optimized.Platform.Deployment.vfs
     :: List.map
          (fun (m : Debloater.module_result) ->
             m.Debloater.dm_module ^ ":"
             ^ String.concat "+" m.Debloater.removed_attrs)
          r.Pipeline.module_results)

let run ?baseline ?manifest_path ?(jobs = 1) d =
  Pipeline.run
    ~options:{ Pipeline.default_options with
               k = 3; baseline; manifest_path;
               oracle_cache = Some (Oracle.Cache.create ()) }
    ~jobs d

let pipeline_tests =
  [ Alcotest.test_case "unchanged app replays fully, bit-identical" `Slow
      (fun () ->
        let path = Filename.concat (fresh_dir ()) "tiny.manifest" in
        let cold = run ~manifest_path:path tiny in
        let baseline = Manifest.load ~path in
        Alcotest.(check bool) "manifest written" true (baseline <> None);
        let warm = run ?baseline tiny in
        Alcotest.(check string) "identical output" (fingerprint cold)
          (fingerprint warm);
        Alcotest.(check int) "every module replayed"
          (List.length warm.Pipeline.module_results)
          (List.length warm.Pipeline.replayed_modules);
        Alcotest.(check int) "zero oracle queries" 0
          warm.Pipeline.total_oracle_queries);
    Alcotest.test_case "edited app: warm == cold at jobs 1 and 4" `Slow
      (fun () ->
        let path = Filename.concat (fresh_dir ()) "tiny.manifest" in
        ignore (run ~manifest_path:path tiny);
        let baseline = Manifest.load ~path in
        (* one-module edit: tiny_b appends a comment to tinylib *)
        let cold = run tiny_b in
        let warm1 = run ?baseline tiny_b in
        let warm4 = run ?baseline ~jobs:4 tiny_b in
        Alcotest.(check string) "warm(j=1) == cold" (fingerprint cold)
          (fingerprint warm1);
        Alcotest.(check string) "warm(j=4) == cold" (fingerprint cold)
          (fingerprint warm4);
        Alcotest.(check bool) "strictly fewer queries warm" true
          (warm1.Pipeline.total_oracle_queries
           < cold.Pipeline.total_oracle_queries);
        Alcotest.(check int) "same counters at any jobs"
          warm1.Pipeline.total_oracle_queries
          warm4.Pipeline.total_oracle_queries);
    Alcotest.test_case "foreign baseline is ignored" `Slow (fun () ->
        let path = Filename.concat (fresh_dir ()) "tiny.manifest" in
        ignore (run ~manifest_path:path tiny);
        let baseline =
          Option.map
            (fun m -> { m with Manifest.mf_app = "someone-else" })
            (Manifest.load ~path)
        in
        let r = run ?baseline tiny in
        Alcotest.(check (list string)) "nothing replayed" []
          r.Pipeline.replayed_modules;
        Alcotest.(check bool) "ran a real search" true
          (r.Pipeline.total_oracle_queries > 0)) ]

(* --- durable-state compatibility ------------------------------------------ *)

(* fixtures/markdown-memo holds the observation store an earlier build
   wrote for `ltrim debloat markdown -j 1 --memo-dir DIR`. Re-running the
   same search against a copy must answer every oracle query from it: a
   fresh execution (a miss) means some memo-key component changed, which
   would silently orphan every store users have on disk. *)
let fixture_memo =
  Filename.concat
    (Filename.concat "fixtures" "markdown-memo")
    Memo_store.file_name

let compat_tests =
  [ Alcotest.test_case "markdown store from an earlier build still hits"
      `Slow (fun () ->
        let dir = fresh_dir () in
        write_file (Filename.concat dir Memo_store.file_name)
          (read_file fixture_memo);
        with_store dir (fun store ->
            let cache = Oracle.Cache.create () in
            Oracle.Cache.attach_store cache (Some store);
            ignore
              (Pipeline.run
                 ~options:{ Pipeline.default_options with
                            oracle_cache = Some cache }
                 ~jobs:1
                 (Workloads.Suite.deployment_of "markdown"));
            Alcotest.(check int) "no fresh executions" 0
              (Oracle.Cache.misses cache);
            Alcotest.(check bool) "answered from the store" true
              (Oracle.Cache.store_hits cache > 0)));
    Alcotest.test_case "engine name in durable state is treewalk" `Quick
      (fun () ->
        Alcotest.(check string) "recorded engine name" "treewalk"
          (Minipy.Backend.to_string (Minipy.Backend.current ())));
    (* Literal digests computed by an earlier build: a change here orphans
       every journal (--resume) and manifest (--baseline) on disk. *)
    Alcotest.test_case "journal run digest matches an earlier build" `Quick
      (fun () ->
        Alcotest.(check string) "tinylib journal digest"
          "db29f2526e468941845154ad338befec"
          (Debloater.journal_run_digest tiny ~module_name:"tinylib"
             ~file:"site-packages/tinylib/__init__.py"
             ~protected_list:[ "keep" ] ~candidates:[ "a"; "b" ]));
    Alcotest.test_case "search digest matches an earlier build" `Quick
      (fun () ->
        Alcotest.(check string) "tinylib search digest"
          "85a430b2a3dd7b449e8f8bcd38206c68" (digest_of tiny));
    (* fixtures/markdown-manifest holds the manifest an earlier build wrote
       for `ltrim debloat markdown -j 1 --manifest FILE`. As a baseline it
       must replay every module without a query and rebuild the recorded
       output image. *)
    Alcotest.test_case "markdown manifest from an earlier build replays"
      `Quick (fun () ->
        let baseline =
          Manifest.load
            ~path:
              (Filename.concat
                 (Filename.concat "fixtures" "markdown-manifest")
                 "markdown.manifest")
        in
        Alcotest.(check bool) "fixture parses" true (baseline <> None);
        let r =
          Pipeline.run
            ~options:{ Pipeline.default_options with
                       baseline;
                       oracle_cache = Some (Oracle.Cache.create ()) }
            ~jobs:1
            (Workloads.Suite.deployment_of "markdown")
        in
        Alcotest.(check (list string)) "every module replayed"
          (List.map
             (fun (m : Debloater.module_result) -> m.Debloater.dm_module)
             r.Pipeline.module_results)
          r.Pipeline.replayed_modules;
        Alcotest.(check int) "zero oracle queries" 0
          r.Pipeline.total_oracle_queries;
        Alcotest.(check string) "recorded output image"
          (Option.get baseline).Manifest.mf_output_digest
          (Platform.Deployment.image_digest r.Pipeline.optimized)) ]

let suite =
  [ ("incremental: memo store", store_tests @ checksummed_malformed_tests);
    ("incremental: memo store properties",
     List.map QCheck_alcotest.to_alcotest [ qcheck_truncate; qcheck_escape ]);
    ("incremental: cache capacity and store", cache_tests);
    ("incremental: search digest", digest_tests);
    ("incremental: manifest", manifest_tests);
    ("incremental: DD warm start", dd_tests);
    ("incremental: pipeline warm == cold", pipeline_tests);
    ("incremental: durable-state compatibility", compat_tests) ]
