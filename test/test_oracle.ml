(* Oracle: stdout+return equivalence across fresh-interpreter runs. *)

open Trim

let tiny = Workloads.Suite.tiny_app ()

let observations =
  [ Alcotest.test_case "observation is deterministic" `Quick (fun () ->
        let o1 = Oracle.observe tiny in
        let o2 = Oracle.observe tiny in
        Alcotest.(check bool) "equivalent" true (Oracle.equivalent o1 o2));
    Alcotest.test_case "one entry per test case" `Quick (fun () ->
        let o = Oracle.observe tiny in
        Alcotest.(check int) "entries" 2 (List.length o.Oracle.per_test));
    Alcotest.test_case "unmodified copy passes its own oracle" `Quick (fun () ->
        let oracle, _ = Oracle.for_reference tiny in
        Alcotest.(check bool) "passes" true
          (oracle (Platform.Deployment.copy tiny)));
    Alcotest.test_case "breaking a needed function fails the oracle" `Quick
      (fun () ->
        let oracle, _ = Oracle.for_reference tiny in
        let broken = Platform.Deployment.copy tiny in
        let path = "site-packages/tinylib/_core.py" in
        let src = Minipy.Vfs.read_exn broken.Platform.Deployment.vfs path in
        (* change f0's arithmetic: output changes, oracle must notice *)
        let src' =
          Str.global_replace (Str.regexp_string "def f0(x=0):\n  return x * 2 + 1")
            "def f0(x=0):\n  return x * 3 + 1" src
        in
        Minipy.Vfs.add_file broken.Platform.Deployment.vfs path src';
        Alcotest.(check bool) "fails" false (oracle broken));
    Alcotest.test_case "removing an unused heavy passes the oracle" `Quick
      (fun () ->
        let oracle, _ = Oracle.for_reference tiny in
        let trimmed = Platform.Deployment.copy tiny in
        let path = "site-packages/tinylib/__init__.py" in
        let src = Minipy.Vfs.read_exn trimmed.Platform.Deployment.vfs path in
        let lines = String.split_on_char '\n' src in
        let kept =
          List.filter
            (fun l ->
               not (String.length l >= 14
                    && String.sub l 0 14 = "from ._heavy_0"))
            lines
        in
        assert (List.length kept < List.length lines);
        Minipy.Vfs.add_file trimmed.Platform.Deployment.vfs path
          (String.concat "\n" kept);
        Alcotest.(check bool) "passes" true (oracle trimmed));
    Alcotest.test_case "an exhausted step budget is CRASH:timeout" `Quick
      (fun () ->
        let outputs max_steps =
          let params =
            { Platform.Lambda_sim.default_params with max_steps }
          in
          List.map snd
            (Oracle.observe ~cache:(Oracle.Cache.create ()) ~params tiny)
              .Oracle.per_test
        in
        List.iter
          (fun max_steps ->
             List.iter
               (Alcotest.(check string)
                  (Printf.sprintf "timeout at %d steps" max_steps)
                  "CRASH:timeout")
               (outputs max_steps))
          [ 1; 5; 10 ];
        Alcotest.(check bool) "completes at the default budget" false
          (List.mem "CRASH:timeout"
             (outputs Minipy.Interp.default_max_steps)));
    Alcotest.test_case "init crash observed as an error" `Quick (fun () ->
        let broken = Platform.Deployment.copy tiny in
        Minipy.Vfs.add_file broken.Platform.Deployment.vfs
          "site-packages/tinylib/__init__.py" "raise ValueError(\"boom\")\n";
        let o = Oracle.observe broken in
        List.iter
          (fun (_, out) ->
             Alcotest.(check string) "marker" "ERR:ValueError:boom" out)
          o.Oracle.per_test);
    Alcotest.test_case "handler error observed distinctly" `Quick (fun () ->
        let broken = Platform.Deployment.copy tiny in
        let src = Platform.Deployment.handler_source broken in
        let src' =
          Str.global_replace (Str.regexp_string "acc = tinylib.f0(acc)")
            "acc = tinylib.missing_fn(acc)" src
        in
        Minipy.Vfs.add_file broken.Platform.Deployment.vfs "handler.py" src';
        let o = Oracle.observe broken in
        List.iter
          (fun (_, out) ->
             Alcotest.(check bool) "mentions AttributeError" true
               (let re = Str.regexp_string "ERR:AttributeError" in
                try ignore (Str.search_forward re out 0); true
                with Not_found -> false))
          o.Oracle.per_test) ]

(* --- hardened oracle: quorum, quarantine, watchdog ------------------------ *)

let counter name = Obs.Metrics.counter Obs.Metrics.global name

let delta c f =
  let before = Obs.Metrics.value c in
  let x = f () in
  (x, Obs.Metrics.value c - before)

let hardened =
  [ Alcotest.test_case "deterministic suite: equals plain, zero retries"
      `Quick (fun () ->
        let h =
          Oracle.Hardened.create ~cache:(Oracle.Cache.create ())
            { Oracle.Hardened.default_config with retries = 2 }
        in
        let o, retries =
          delta (counter "oracle.quorum.retries") (fun () ->
              Oracle.Hardened.observe h tiny)
        in
        let clean = Oracle.observe ~cache:(Oracle.Cache.create ()) tiny in
        Alcotest.(check bool) "equals plain observe" true
          (Oracle.equivalent o clean);
        Alcotest.(check int) "no disagreement-triggered re-executions" 0
          retries;
        Alcotest.(check int) "zero false quarantines" 0
          (Oracle.Hardened.quarantined h));
    Alcotest.test_case "flaky executions: quorum recovers, test quarantined"
      `Quick (fun () ->
        let h =
          Oracle.Hardened.create ~cache:(Oracle.Cache.create ())
            { Oracle.Hardened.default_config with
              retries = 2;
              (* inside the 1-10% design envelope (scaled up so the two
                 tiny-app keys actually draw a flake at this seed) *)
              inject = Some (Trim.Chaos.flake ~seed:3 ~rate:0.25) }
        in
        let o, retries =
          delta (counter "oracle.quorum.retries") (fun () ->
              Oracle.Hardened.observe h tiny)
        in
        let clean = Oracle.observe ~cache:(Oracle.Cache.create ()) tiny in
        Alcotest.(check bool)
          "quorum recovers the genuine observation despite flakes" true
          (Oracle.equivalent o clean);
        Alcotest.(check bool) "flaky tests quarantined" true
          (Oracle.Hardened.quarantined h >= 1);
        Alcotest.(check bool) "disagreements were re-executed" true
          (retries > 0);
        List.iter
          (fun (q : Oracle.Hardened.quarantine_entry) ->
             Alcotest.(check string) "classified flaky" "flaky"
               (Oracle.Hardened.classification_name
                  q.Oracle.Hardened.q_class))
          (Oracle.Hardened.report h));
    Alcotest.test_case
      "genuine drift on a verified memo hit: behavior-changed, memo kept"
      `Quick (fun () ->
        let h =
          Oracle.Hardened.create ~cache:(Oracle.Cache.create ())
            { Oracle.Hardened.default_config with
              retries = 1;
              (* attempts 0-1 (the fresh dual execution) are genuine; every
                 execution after that consistently disagrees — a behaviour
                 change, not a flake *)
              inject = Some (Trim.Chaos.drift ~seed:3 ~rate:1.0 ~after:2) }
        in
        let o1 = Oracle.Hardened.observe h tiny in
        let o2 = Oracle.Hardened.observe h tiny in
        Alcotest.(check bool) "memoized baseline stays authoritative" true
          (Oracle.equivalent o1 o2);
        Alcotest.(check bool) "divergence reported" true
          (Oracle.Hardened.quarantined h >= 1);
        Alcotest.(check bool) "classified behavior-changed" true
          (List.exists
             (fun (q : Oracle.Hardened.quarantine_entry) ->
                q.Oracle.Hardened.q_class = Oracle.Hardened.Behavior_changed)
             (Oracle.Hardened.report h));
        let csv = Oracle.Hardened.report_csv h in
        Alcotest.(check bool) "csv carries the class" true
          (let re = Str.regexp_string "behavior-changed" in
           try ignore (Str.search_forward re csv 0); true
           with Not_found -> false));
    Alcotest.test_case "watchdog: over-budget runs become CRASH observations"
      `Quick (fun () ->
        let now = ref 0.0 in
        let clock () = now := !now +. 10.0; !now in
        let h =
          Oracle.Hardened.create ~cache:(Oracle.Cache.create ())
            { Oracle.Hardened.default_config with
              retries = 0; watchdog_ms = Some 5.0; clock }
        in
        let o, trips =
          delta (counter "oracle.watchdog.trips") (fun () ->
              Oracle.Hardened.observe h tiny)
        in
        Alcotest.(check int) "every execution tripped" 2 trips;
        List.iter
          (fun (_, out) ->
             Alcotest.(check string) "watchdog marker"
               "CRASH:watchdog-timeout" out)
          o.Oracle.per_test);
    Alcotest.test_case "retries = 0 disables quorum and verification" `Quick
      (fun () ->
        let h =
          Oracle.Hardened.create ~cache:(Oracle.Cache.create ())
            { Oracle.Hardened.default_config with retries = 0 }
        in
        let o, retries =
          delta (counter "oracle.quorum.retries") (fun () ->
              Oracle.Hardened.observe h tiny)
        in
        let clean = Oracle.observe ~cache:(Oracle.Cache.create ()) tiny in
        Alcotest.(check bool) "single-execution path" true
          (Oracle.equivalent o clean);
        Alcotest.(check int) "no quorum traffic" 0 retries);
    Alcotest.test_case "negative retries rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Oracle.Hardened: retries < 0") (fun () ->
            ignore
              (Oracle.Hardened.create
                 { Oracle.Hardened.default_config with retries = -1 })))
  ]

let suite =
  [ ("oracle.observations", observations); ("oracle.hardened", hardened) ]
