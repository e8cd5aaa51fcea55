(* Profile-guided lazy loading (ARCHITECTURE §14): manifest parsing, stub
   forcing semantics, the lazy ≡ eager
   observational-equivalence property, optimizer-variant separation of the
   oracle memo and DD journal digests, the fleet lazy-init model with
   idle-time preloading, and the sketch NaN regression. *)

open Minipy

(* --- program runner ------------------------------------------------------- *)

type snapshot = {
  sn_out : string;
  sn_vtime : float;
  sn_heap : int;
  sn_steps : int;
}

let run_program ~vfs src =
  let prog = Parser.parse ~file:"<lazy>" src in
  let t = Interp.create ~max_steps:500_000 vfs in
  let out =
    match Interp.exec_main t prog with
    | _ -> "OK:" ^ Interp.stdout_contents t
    | exception Value.Py_error e ->
      Printf.sprintf "ERR:%s:%s:%s" e.Value.exc_class e.Value.exc_msg
        (Interp.stdout_contents t)
  in
  { sn_out = out;
    sn_vtime = t.Interp.vtime_ms;
    sn_heap = t.Interp.heap_bytes;
    sn_steps = t.Interp.steps }

(* Virtual time relocates (same charge multiset, different addition order),
   so it is compared within a 1e-9 relative tolerance; heap and steps are
   integer sums and must match exactly. *)
let check_equiv name eager lazy_ =
  Alcotest.(check string) (name ^ ": observable") eager.sn_out lazy_.sn_out;
  Alcotest.(check int) (name ^ ": heap") eager.sn_heap lazy_.sn_heap;
  Alcotest.(check int) (name ^ ": steps") eager.sn_steps lazy_.sn_steps;
  let tol = 1e-9 *. Float.max 1.0 (Float.abs eager.sn_vtime) in
  if Float.abs (eager.sn_vtime -. lazy_.sn_vtime) > tol then
    Alcotest.failf "%s: vtime %.17g (eager) vs %.17g (lazy)" name
      eager.sn_vtime lazy_.sn_vtime

(* Library fixture: a heavy root module, a package chain for dotted
   imports, and a circular pair. [lazify] adds the manifest overlay. *)
let lib_vfs ?(manifest = "") () =
  let vfs = Vfs.create () in
  Vfs.add_file vfs "site-packages/heavy.py"
    "acc = 0\n\
     for i in range(200):\n\
    \  acc = acc + i\n\
     value = acc\n\
     def f(x):\n\
    \  return x + value\n";
  Vfs.add_file vfs "site-packages/pkg/__init__.py" "tag = 'pkg'\n";
  Vfs.add_file vfs "site-packages/pkg/sub/__init__.py" "tag = 'sub'\n";
  Vfs.add_file vfs "site-packages/pkg/sub/leaf.py"
    "def g(x):\n  return x * 10\nname = 'leaf'\n";
  Vfs.add_file vfs "site-packages/cyc_a.py"
    "phase = 'a-start'\nimport cyc_b\nphase = 'a-done'\n\
     def probe():\n  return cyc_b.phase\n";
  Vfs.add_file vfs "site-packages/cyc_b.py"
    "import cyc_a\nphase = 'b-done:' + cyc_a.phase\n";
  if manifest <> "" then Vfs.add_file vfs Interp.lazy_manifest_file manifest;
  vfs

let eager_vs_lazy ~manifest name src =
  let eager = run_program ~vfs:(lib_vfs ()) src in
  let lazy_ = run_program ~vfs:(lib_vfs ~manifest ()) src in
  check_equiv name eager lazy_;
  (eager, lazy_)

(* --- manifest ------------------------------------------------------------ *)

let manifest_tests =
  [ Alcotest.test_case "parse: lazy/preload lines, comments skipped" `Quick
      (fun () ->
        let lazified, preload =
          Interp.parse_lazy_manifest
            "# header\n\nlazy numpy\nlazy pandas\npreload numpy.linalg\n"
        in
        Alcotest.(check (list string)) "lazified" [ "numpy"; "pandas" ]
          lazified;
        Alcotest.(check (list string)) "preload" [ "numpy.linalg" ] preload);
    Alcotest.test_case "render round-trips through parse" `Quick (fun () ->
        let text =
          Trim.Lazy_loader.manifest ~lazified:[ "a"; "b" ]
            ~preload:[ "a.x"; "b" ]
        in
        Alcotest.(check (pair (list string) (list string))) "round-trip"
          ([ "a"; "b" ], [ "a.x"; "b" ])
          (Interp.parse_lazy_manifest text));
    Alcotest.test_case "lazy_config_of_vfs separates variants" `Quick
      (fun () ->
        let eager = Interp.lazy_config_of_vfs (lib_vfs ()) in
        let l1 =
          Interp.lazy_config_of_vfs (lib_vfs ~manifest:"lazy heavy\n" ())
        in
        let l2 =
          Interp.lazy_config_of_vfs (lib_vfs ~manifest:"lazy pkg\n" ())
        in
        Alcotest.(check string) "no manifest is eager" "eager" eager;
        Alcotest.(check bool) "lazy tagged" true
          (String.length l1 > 5 && String.sub l1 0 5 = "lazy:");
        Alcotest.(check bool) "distinct manifests, distinct configs" false
          (String.equal l1 l2)) ]

(* --- stub semantics ------------------------------------------------------- *)

let touch_program =
  "import heavy\nprint('pre', 1)\nprint(heavy.f(5))\nprint(heavy.value)\n"

let stub_tests =
  let case name f = Alcotest.test_case name `Quick f in
  [ case "touched root: lazy equals eager" (fun () ->
        ignore
          (eager_vs_lazy ~manifest:"lazy heavy\n" "touched" touch_program));
    case "untouched root: init deferred, never paid" (fun () ->
        let src = "import heavy\nprint('only', 2)\n" in
        let eager = run_program ~vfs:(lib_vfs ()) src in
        let lazy_ =
          run_program ~vfs:(lib_vfs ~manifest:"lazy heavy\n" ()) src
        in
        Alcotest.(check string) "observable" eager.sn_out lazy_.sn_out;
        Alcotest.(check bool) "cheaper vtime" true
          (lazy_.sn_vtime < eager.sn_vtime);
        Alcotest.(check bool) "fewer steps" true
          (lazy_.sn_steps < eager.sn_steps));
    case "dotted import binds stub chain" (fun () ->
        ignore
          (eager_vs_lazy ~manifest:"lazy pkg\n" "dotted"
             "import pkg.sub.leaf\n\
              print(pkg.tag)\n\
              print(pkg.sub.tag)\n\
              print(pkg.sub.leaf.g(4))\n\
              print(pkg.sub.leaf.name)\n"));
    case "circular imports match eager partial-init" (fun () ->
        ignore
          (eager_vs_lazy ~manifest:"lazy cyc_a\nlazy cyc_b\n" "circular"
             "import cyc_a\nprint(cyc_a.probe())\n"));
    case "from-import forces the stub" (fun () ->
        ignore
          (eager_vs_lazy ~manifest:"lazy heavy\n" "from-import"
             "import heavy\nfrom heavy import f\nprint(f(1))\n"));
    case "setattr forces before rebinding" (fun () ->
        ignore
          (eager_vs_lazy ~manifest:"lazy heavy\n" "setattr"
             "import heavy\nheavy.value = 7\nprint(heavy.f(0))\n"));
    case "preload lines never change semantics" (fun () ->
        let m = "lazy heavy\npreload heavy\n" in
        ignore (eager_vs_lazy ~manifest:m "preload" touch_program)) ]

(* --- QCheck: lazy ≡ eager -------------------------------------------------- *)

(* Random library of side-effect-free modules plus a main program that
   imports all of them and touches a random subset; every module is also
   touched at the end so the full-force charge multiset matches eager. *)
let gen_case =
  let open QCheck2.Gen in
  let* n_mods = int_range 1 4 in
  let* bodies =
    flatten_l
      (List.init n_mods (fun i ->
           let* loop = int_range 0 30 in
           let* k = int_range 1 9 in
           return
             (Printf.sprintf
                "acc = 0\n\
                 for i in range(%d):\n\
                \  acc = acc + i * %d\n\
                 def f(x):\n\
                \  return x + acc + %d\n"
                loop k i)))
  in
  let* touches =
    list_size (int_range 0 6) (pair (int_range 0 (n_mods - 1)) (int_range 0 50))
  in
  return (bodies, touches)

let build_case ?(lazify = true) (bodies, touches) =
  let vfs = Vfs.create () in
  List.iteri
    (fun i body ->
       Vfs.add_file vfs (Printf.sprintf "site-packages/mod%d.py" i) body)
    bodies;
  let n = List.length bodies in
  if lazify then
    Vfs.add_file vfs Interp.lazy_manifest_file
      (String.concat ""
         (List.init n (fun i -> Printf.sprintf "lazy mod%d\n" i)));
  let b = Buffer.create 256 in
  List.iteri
    (fun i _ -> Buffer.add_string b (Printf.sprintf "import mod%d\n" i))
    bodies;
  List.iter
    (fun (m, x) ->
       Buffer.add_string b (Printf.sprintf "print(mod%d.f(%d))\n" m x))
    touches;
  (* force everything so the charge multisets coincide *)
  List.iteri
    (fun i _ -> Buffer.add_string b (Printf.sprintf "print(mod%d.acc)\n" i))
    bodies;
  (vfs, Buffer.contents b)

let prop_lazy_equiv =
  QCheck2.Test.make ~name:"lazy ≡ eager (fully forced)" ~count:60 gen_case
    (fun case ->
      let vfs_e, src = build_case ~lazify:false case in
      let vfs_l, _ = build_case case in
      let eager = run_program ~vfs:vfs_e src in
      let lazy_ = run_program ~vfs:vfs_l src in
      let tol = 1e-9 *. Float.max 1.0 (Float.abs eager.sn_vtime) in
      String.equal eager.sn_out lazy_.sn_out
      && eager.sn_heap = lazy_.sn_heap
      && eager.sn_steps = lazy_.sn_steps
      && Float.abs (eager.sn_vtime -. lazy_.sn_vtime) <= tol)

let property_tests = List.map QCheck_alcotest.to_alcotest [ prop_lazy_equiv ]

(* --- optimizer: lazy loader + variant dispatch --------------------------- *)

let tiny = Workloads.Suite.tiny_app ()

let lazy_twin d =
  let d' = Platform.Deployment.copy d in
  Vfs.add_file d'.Platform.Deployment.vfs Interp.lazy_manifest_file
    "lazy tinylib\n";
  d'

let optimizer_tests =
  [ Alcotest.test_case "lazy loader validates and removes nothing" `Quick
      (fun () ->
        let r = Trim.Lazy_loader.optimize tiny in
        Alcotest.(check bool) "validated" true r.Trim.Lazy_loader.lz_validated;
        Alcotest.(check bool) "lazified something" true
          (r.Trim.Lazy_loader.lz_lazified <> []);
        Alcotest.(check bool) "manifest shipped" true
          (Vfs.read r.Trim.Lazy_loader.lz_optimized.Platform.Deployment.vfs
             Interp.lazy_manifest_file
           <> None);
        (* nothing deleted: every original file readable and unchanged *)
        let o = Trim.Oracle.observe tiny in
        let l = Trim.Oracle.observe r.Trim.Lazy_loader.lz_optimized in
        Alcotest.(check bool) "observationally equivalent" true
          (Trim.Oracle.equivalent o l));
    Alcotest.test_case "variant dispatch shapes" `Quick (fun () ->
        let off = Trim.Optimizer.run Trim.Optimizer.Off tiny in
        Alcotest.(check bool) "none is identity" true
          (off.Trim.Optimizer.o_deployment == tiny
           && off.Trim.Optimizer.o_dd = None
           && off.Trim.Optimizer.o_lazy = None);
        let lz = Trim.Optimizer.run Trim.Optimizer.Lazy tiny in
        Alcotest.(check bool) "lazy has no DD report" true
          (lz.Trim.Optimizer.o_dd = None && lz.Trim.Optimizer.o_lazy <> None);
        let cb = Trim.Optimizer.run Trim.Optimizer.Combined tiny in
        Alcotest.(check bool) "combined has both reports" true
          (cb.Trim.Optimizer.o_dd <> None && cb.Trim.Optimizer.o_lazy <> None));
    Alcotest.test_case "of_string/to_string round-trip" `Quick (fun () ->
        List.iter
          (fun v ->
             Alcotest.(check bool) (Trim.Optimizer.to_string v) true
               (Trim.Optimizer.of_string (Trim.Optimizer.to_string v) = Some v))
          Trim.Optimizer.all;
        Alcotest.(check bool) "off alias" true
          (Trim.Optimizer.of_string "off" = Some Trim.Optimizer.Off)) ]

(* --- oracle memo + journal digest separation ----------------------------- *)

let key_tests =
  [ Alcotest.test_case "oracle memo never crosses variants" `Quick (fun () ->
        let cache = Trim.Oracle.Cache.create () in
        let o_eager = Trim.Oracle.observe ~cache tiny in
        let m1 = Trim.Oracle.Cache.misses cache in
        Alcotest.(check int) "eager primed the memo" 0
          (Trim.Oracle.Cache.hits cache);
        let o_lazy = Trim.Oracle.observe ~cache (lazy_twin tiny) in
        Alcotest.(check int) "lazy run took zero eager hits" 0
          (Trim.Oracle.Cache.hits cache);
        Alcotest.(check bool) "lazy run missed afresh" true
          (Trim.Oracle.Cache.misses cache > m1);
        Alcotest.(check bool) "same observable behaviour" true
          (Trim.Oracle.equivalent o_eager o_lazy);
        (* re-observing each variant now hits its own entries *)
        ignore (Trim.Oracle.observe ~cache tiny);
        ignore (Trim.Oracle.observe ~cache (lazy_twin tiny));
        Alcotest.(check bool) "replays hit" true
          (Trim.Oracle.Cache.hits cache > 0));
    Alcotest.test_case "journal digest separates variants, stays stable"
      `Quick (fun () ->
        let digest d =
          Trim.Debloater.journal_run_digest d ~module_name:"tinylib"
            ~file:"site-packages/tinylib/__init__.py"
            ~protected_list:[ "keep" ] ~candidates:[ "a"; "b" ]
        in
        let e1 = digest tiny and e2 = digest tiny in
        let l1 = digest (lazy_twin tiny) in
        Alcotest.(check string) "eager digest stable (resumable)" e1 e2;
        Alcotest.(check bool) "lazy digest differs" false (String.equal e1 l1));
    Alcotest.test_case "eager journal not replayed under lazy digest" `Quick
      (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "ltrim-lazy-journal-%d" (Unix.getpid ()))
        in
        Trim.Record_log.mkdir_p dir;
        let path = Filename.concat dir "tinylib.journal" in
        let digest d =
          Trim.Debloater.journal_run_digest d ~module_name:"tinylib"
            ~file:"site-packages/tinylib/__init__.py" ~protected_list:[]
            ~candidates:[ "a"; "b" ]
        in
        let j =
          Trim.Journal.open_ ~path ~run_digest:(digest tiny) ()
        in
        Trim.Journal.append j ~key:"a" true;
        Trim.Journal.append j ~key:"b" false;
        Trim.Journal.close j;
        (* resume under the lazy variant: header mismatch discards verdicts *)
        let j' =
          Trim.Journal.open_ ~resume:true ~path
            ~run_digest:(digest (lazy_twin tiny)) ()
        in
        Alcotest.(check int) "nothing replayed" 0 (Trim.Journal.replayed j');
        Alcotest.(check (option bool)) "eager verdict gone" None
          (Trim.Journal.find j' "a");
        Trim.Journal.close j') ]

(* --- sketch NaN regression (fleet.sketch.nan_dropped) -------------------- *)

let sketch_tests =
  [ Alcotest.test_case "NaN dropped, counted, moments unpoisoned" `Quick
      (fun () ->
        let counter =
          Obs.Metrics.counter Obs.Metrics.global "fleet.sketch.nan_dropped"
        in
        let before = Obs.Metrics.value counter in
        let s = Fleet.Sketch.create () in
        List.iter (Fleet.Sketch.add s) [ 1.0; Float.nan; 3.0 ];
        Alcotest.(check int) "count skips NaN" 2 (Fleet.Sketch.count s);
        Alcotest.(check (float 1e-12)) "sum" 4.0 (Fleet.Sketch.sum s);
        Alcotest.(check (float 1e-12)) "mean" 2.0 (Fleet.Sketch.mean s);
        Alcotest.(check (float 1e-12)) "min" 1.0 (Fleet.Sketch.min_seen s);
        Alcotest.(check (float 1e-12)) "max" 3.0 (Fleet.Sketch.max_seen s);
        Alcotest.(check bool) "quantile finite" true
          (Float.is_finite (Fleet.Sketch.quantile s ~p:99.0));
        Alcotest.(check int) "drop counted once" (before + 1)
          (Obs.Metrics.value counter)) ]

(* --- fleet: pending ledger, preload, and shard invariance ----------------- *)

open Fleet

let profile =
  { Router.exec_s = 0.1; func_init_s = 0.05; instance_init_s = 0.0;
    memory_mb = 256.0 }

let lazy_cfg ?(preload = false) ?(deferred = 0.4) ?(first_touch = 0.15) () =
  { (Router.default_config ~profile (Pool.Fixed_ttl { keep_alive_s = 60.0 }))
    with
    Router.lazy_load =
      Some
        { Router.lz_deferred_s = deferred; lz_first_touch_s = first_touch;
          lz_preload = preload } }

let e2e records = List.map (fun (r : Router.record) -> r.Router.e2e_s) records

let fleet_tests =
  [ Alcotest.test_case "pool pending ledger and idle preload" `Quick
      (fun () ->
        let p = Pool.create (Pool.Fixed_ttl { keep_alive_s = 100.0 }) in
        let inst = Pool.spawn p ~now:0.0 in
        Pool.set_pending inst 2.0;
        Alcotest.(check (float 1e-12)) "set" 2.0 (Pool.pending_s inst);
        Pool.consume_pending inst 0.5;
        Alcotest.(check (float 1e-12)) "consume" 1.5 (Pool.pending_s inst);
        ignore (Pool.release p inst ~now:10.0);
        Pool.preload_idle p inst ~now:10.9;
        Alcotest.(check (float 1e-9)) "idle gap resolved" 0.6
          (Pool.pending_s inst);
        Alcotest.(check (float 1e-9)) "preloaded accounted" 0.9
          (Pool.preloaded_s p);
        Pool.preload_idle p inst ~now:100.0;
        Alcotest.(check (float 1e-9)) "drains to zero, never negative" 0.0
          (Pool.pending_s inst);
        Pool.consume_pending inst 5.0;
        Alcotest.(check (float 1e-9)) "consume clamps at zero" 0.0
          (Pool.pending_s inst));
    Alcotest.test_case "lazy_load = None is inert" `Quick (fun () ->
        let t = Platform.Trace.periodic ~period_s:5.0 ~count:40 ~name:"l" in
        let base =
          Router.default_config ~profile
            (Pool.Fixed_ttl { keep_alive_s = 60.0 })
        in
        let explicit = { base with Router.lazy_load = None } in
        let a = Router.run base t and b = Router.run explicit t in
        Alcotest.(check (list (float 0.0))) "bit-identical e2e"
          (e2e a.Router.records) (e2e b.Router.records);
        Alcotest.(check (float 0.0)) "no touch billed"
          (List.fold_left (fun acc (r : Router.record) ->
               acc +. r.Router.billed_ms) 0.0 a.Router.records)
          (List.fold_left (fun acc (r : Router.record) ->
               acc +. r.Router.billed_ms) 0.0 b.Router.records));
    Alcotest.test_case "cold request forces first touch; billed" `Quick
      (fun () ->
        let t = Platform.Trace.periodic ~period_s:5.0 ~count:1 ~name:"c" in
        let r =
          match (Router.run (lazy_cfg ()) t).Router.records with
          | [ r ] -> r
          | _ -> Alcotest.fail "one arrival"
        in
        (* e2e = init + exec + min(deferred, first_touch) *)
        Alcotest.(check (float 1e-9)) "touch in e2e" (0.05 +. 0.1 +. 0.15)
          r.Router.e2e_s;
        Alcotest.(check (float 1e-6)) "touch billed"
          (1000.0 *. (0.05 +. 0.1 +. 0.15))
          r.Router.billed_ms);
    Alcotest.test_case "touches drain pending; preload finishes it idle"
      `Quick (fun () ->
        let t = Platform.Trace.periodic ~period_s:5.0 ~count:4 ~name:"d" in
        (* without preload: 0.4 deferred drains 0.15 + 0.15 + 0.1 + 0 *)
        let no_pre = Router.run (lazy_cfg ()) t in
        Alcotest.(check (list (float 1e-9))) "touch tail without preload"
          [ 0.3; 0.25; 0.2; 0.1 ]
          (e2e no_pre.Router.records);
        (* with preload the 4.75 s idle gap resolves everything pending *)
        let pre = Router.run (lazy_cfg ~preload:true ()) t in
        Alcotest.(check (list (float 1e-9))) "preload clears warm touches"
          [ 0.3; 0.1; 0.1; 0.1 ]
          (e2e pre.Router.records));
    Alcotest.test_case "sharded groups bit-identical with preloading" `Quick
      (fun () ->
        let apps =
          List.init 5 (fun i ->
              { Sharded.app_id = i;
                app_trace =
                  (fun () ->
                     Platform.Trace.poisson ~seed:(31 + (i * 7919))
                       ~rate_per_s:1.2 ~duration_s:300.0
                       ~name:(Printf.sprintf "lz-%d" i));
                app_variants =
                  [ { Sharded.v_group = "eager";
                      v_cfg =
                        Router.default_config ~profile
                          (Pool.Fixed_ttl { keep_alive_s = 120.0 }) };
                    { Sharded.v_group = "lazy-preload";
                      v_cfg = lazy_cfg ~preload:true () } ] })
        in
        let rows groups =
          List.map
            (fun (g : Sharded.group) ->
               Printf.sprintf "%s,%d,%d,%s" g.Sharded.g_label g.Sharded.g_apps
                 g.Sharded.g_requests
                 (Report.csv_row g.Sharded.g_summary))
            groups
        in
        let base = rows (Sharded.run ~shards:1 apps) in
        List.iter
          (fun shards ->
             Alcotest.(check (list string))
               (Printf.sprintf "shards=%d" shards)
               base
               (rows (Sharded.run ~shards apps)))
          [ 2; 3 ]) ]

let suite =
  [ ("lazy: manifest", manifest_tests);
    ("lazy: stub semantics", stub_tests);
    ("lazy: properties", property_tests);
    ("lazy: optimizer", optimizer_tests);
    ("lazy: variant keys", key_tests);
    ("lazy: sketch NaN", sketch_tests);
    ("lazy: fleet model", fleet_tests) ]
