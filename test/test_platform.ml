(* Lambda simulator: cold/warm lifecycle, keep-alive, billing boundary. *)

open Platform

let tiny () = Workloads.Suite.tiny_app ()

let lifecycle =
  [ Alcotest.test_case "first invocation is cold, second warm" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let c = Lambda_sim.invoke sim ~now_s:0.0 () in
        let w = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check string) "cold" "cold" (Lambda_sim.start_kind_name c.Lambda_sim.kind);
        Alcotest.(check string) "warm" "warm" (Lambda_sim.start_kind_name w.Lambda_sim.kind));
    Alcotest.test_case "keep-alive expiry forces a cold start" `Quick (fun () ->
        let params = { Lambda_sim.default_params with keep_alive_s = 60.0 } in
        let sim = Lambda_sim.create ~params (tiny ()) in
        let _ = Lambda_sim.invoke sim ~now_s:0.0 () in
        let late = Lambda_sim.invoke sim ~now_s:120.0 () in
        Alcotest.(check string) "cold again" "cold"
          (Lambda_sim.start_kind_name late.Lambda_sim.kind));
    Alcotest.test_case "request inside keep-alive is warm" `Quick (fun () ->
        let params = { Lambda_sim.default_params with keep_alive_s = 60.0 } in
        let sim = Lambda_sim.create ~params (tiny ()) in
        let _ = Lambda_sim.invoke sim ~now_s:0.0 () in
        let w = Lambda_sim.invoke sim ~now_s:59.0 () in
        Alcotest.(check string) "warm" "warm"
          (Lambda_sim.start_kind_name w.Lambda_sim.kind));
    Alcotest.test_case "evict forces cold start" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let _ = Lambda_sim.invoke sim ~now_s:0.0 () in
        Lambda_sim.evict sim;
        let c = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check string) "cold" "cold"
          (Lambda_sim.start_kind_name c.Lambda_sim.kind));
    Alcotest.test_case "records accumulate in order" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let _ = Lambda_sim.invoke sim ~now_s:0.0 () in
        let _ = Lambda_sim.invoke sim ~now_s:1.0 () in
        let rs = Lambda_sim.records sim in
        Alcotest.(check int) "two" 2 (List.length rs);
        Alcotest.(check string) "first cold" "cold"
          (Lambda_sim.start_kind_name (List.hd rs).Lambda_sim.kind)) ]

let phases =
  [ Alcotest.test_case "fig1 billing boundary" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let c = Lambda_sim.invoke sim ~now_s:0.0 () in
        (* billed = init + exec (rounded up); platform phases unbilled *)
        Alcotest.(check bool) "billed >= init+exec" true
          (c.Lambda_sim.billed_ms >= c.Lambda_sim.init_ms +. c.Lambda_sim.exec_ms -. 1e-9);
        Alcotest.(check bool) "billed < init+exec+granularity" true
          (c.Lambda_sim.billed_ms < c.Lambda_sim.init_ms +. c.Lambda_sim.exec_ms +. 1.0);
        Alcotest.(check bool) "e2e includes unbilled phases" true
          (c.Lambda_sim.e2e_ms
           >= c.Lambda_sim.billed_ms +. c.Lambda_sim.instance_init_ms -. 1.0));
    Alcotest.test_case "warm start has no init phases" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let _ = Lambda_sim.invoke sim ~now_s:0.0 () in
        let w = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check (float 1e-9)) "no instance init" 0.0 w.Lambda_sim.instance_init_ms;
        Alcotest.(check (float 1e-9)) "no transmission" 0.0 w.Lambda_sim.transmission_ms;
        Alcotest.(check (float 1e-9)) "no fn init" 0.0 w.Lambda_sim.init_ms;
        Alcotest.(check bool) "but executes" true (w.Lambda_sim.exec_ms > 0.0));
    Alcotest.test_case "transmission scales with image size" `Quick (fun () ->
        let d = tiny () in
        let sim = Lambda_sim.create d in
        let expected =
          Platform.Deployment.image_mb d
          /. Lambda_sim.default_params.Lambda_sim.transmission_mb_per_s *. 1000.0
        in
        Alcotest.(check (float 1e-6)) "ms" expected (Lambda_sim.transmission_ms sim));
    Alcotest.test_case "cold start costs more than warm" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let c = Lambda_sim.invoke sim ~now_s:0.0 () in
        let w = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check bool) "cost" true (c.Lambda_sim.cost > w.Lambda_sim.cost));
    Alcotest.test_case "handler error is captured not raised" `Quick (fun () ->
        let d = tiny () in
        let sim = Lambda_sim.create d in
        let r = Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": \"oops\"}" () in
        match r.Lambda_sim.outcome with
        | Lambda_sim.Error e ->
          Alcotest.(check string) "TypeError" "TypeError" e.Minipy.Value.exc_class
        | Lambda_sim.Ok _ -> Alcotest.fail "expected type error from str*int") ]



let init_crash =
  [ Alcotest.test_case "init crash surfaces as a function error" `Quick
      (fun () ->
        let d = tiny () in
        let broken = Platform.Deployment.copy d in
        Minipy.Vfs.add_file broken.Platform.Deployment.vfs
          "site-packages/tinylib/__init__.py" "raise OSError(\"no .so\")\n";
        let sim = Lambda_sim.create broken in
        let r = Lambda_sim.invoke sim ~now_s:0.0 () in
        (match r.Lambda_sim.outcome with
         | Lambda_sim.Error e ->
           Alcotest.(check string) "class" "OSError" e.Minipy.Value.exc_class
         | Lambda_sim.Ok _ -> Alcotest.fail "expected error");
        (* a crashed instance is not kept warm *)
        let r2 = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check string) "cold again" "cold"
          (Lambda_sim.start_kind_name r2.Lambda_sim.kind)) ]

(* A library with simrt init charges and a handler that loops: its cold and
   warm records, printed with %.17g, are pinned to literal snapshots so any
   drift in the evaluator's or the simulator's accounting shows up here. *)
let numlib_deployment () =
  let vfs = Minipy.Vfs.create () in
  Minipy.Vfs.add_file vfs "numlib.py"
    "import simrt\n\
     simrt.cpu_ms(12.0)\n\
     simrt.alloc_mb(3.0)\n\
     def dot(xs, ys):\n\
    \  acc = 0\n\
    \  for i in range(len(xs)):\n\
    \    acc += xs[i] * ys[i]\n\
    \  return acc\n";
  Minipy.Vfs.add_file vfs "handler.py"
    "import numlib\n\
     def handler(event, context):\n\
    \  n = event.get('n', 4)\n\
    \  xs = [i for i in range(n)]\n\
    \  print('dot', n)\n\
    \  return numlib.dot(xs, xs)\n";
  Deployment.make ~name:"numlib-sim" ~vfs ~handler_file:"handler.py"
    ~handler_name:"handler"
    ~test_cases:[ Deployment.test_case ~name:"t1" "{\"n\": 6}" ]

let record_str (r : Lambda_sim.record) =
  Printf.sprintf
    "kind=%s init=%.17g exec=%.17g billed=%.17g mem=%.17g cost=%.17g out=%S res=%s"
    (Lambda_sim.start_kind_name r.Lambda_sim.kind)
    r.Lambda_sim.init_ms r.Lambda_sim.exec_ms r.Lambda_sim.billed_ms
    r.Lambda_sim.peak_memory_mb r.Lambda_sim.cost r.Lambda_sim.stdout
    (match r.Lambda_sim.outcome with
     | Lambda_sim.Ok v -> "OK:" ^ Minipy.Value.to_repr v
     | Lambda_sim.Error e -> "ERR:" ^ e.Minipy.Value.exc_class)

let records =
  [ Alcotest.test_case "cold and warm records are pinned" `Quick (fun () ->
        let sim = Lambda_sim.create (numlib_deployment ()) in
        let invoke now_s =
          record_str (Lambda_sim.invoke sim ~now_s ~event:"{\"n\": 6}" ())
        in
        Alcotest.(check string) "cold record"
          "kind=cold init=12.0436 exec=75.082399999999993 billed=88 \
           mem=6.0042495727539062 cost=3.7831990000000002e-07 \
           out=\"dot 6\\n\" res=OK:55"
          (invoke 0.0);
        Alcotest.(check string) "warm record"
          "kind=warm init=0 exec=75.082399999999993 billed=76 \
           mem=6.0048751831054688 cost=3.5400354999999998e-07 \
           out=\"dot 6\\n\" res=OK:55"
          (invoke 1.0)) ]

let suite =
  [ ("platform.lifecycle", lifecycle); ("platform.phases", phases);
    ("platform.init_crash", init_crash); ("platform.records", records) ]
