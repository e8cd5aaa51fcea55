(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation on
   the simulator (the same output as `ltrim experiments`).

   Part 2 runs Bechamel micro-benchmarks: one Test.make per paper table /
   figure, timing the computational kernel that experiment exercises, plus
   groups for the minipy substrate and the caching substrate (parse cache,
   CoW overlays, oracle memo). Pass --no-experiments or --no-micro to skip a
   part; pass --json OUT to also write the measurements as JSON so future
   revisions have a perf trajectory to compare against. *)

open Bechamel
open Toolkit

(* --- part 1: experiment tables/figures ----------------------------------- *)

let run_experiments () =
  List.iter
    (fun (e : Experiments.Registry.entry) ->
       print_string (e.Experiments.Registry.print ());
       flush stdout)
    Experiments.Registry.all

(* --- part 2: Bechamel micro-benchmarks ----------------------------------- *)

let tiny = lazy (Workloads.Suite.tiny_app ())

let tiny_trimmed =
  lazy
    (let d = Lazy.force tiny in
     (Trim.Pipeline.run ~options:{ Trim.Pipeline.default_options with k = 1 } d)
       .Trim.Pipeline.optimized)

let markdown_spec = lazy (Workloads.Apps.find "markdown")

let cold_start d =
  let sim = Platform.Lambda_sim.create d in
  Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" ()

let substrate_tests =
  let source =
    lazy
      (Minipy.Vfs.read_exn (Lazy.force tiny).Platform.Deployment.vfs
         "site-packages/tinylib/__init__.py")
  in
  [ Test.make ~name:"lexer.tokenize"
      (Staged.stage (fun () ->
           Minipy.Lexer.tokenize ~file:"<b>" (Lazy.force source)));
    Test.make ~name:"parser.parse"
      (Staged.stage (fun () ->
           Minipy.Parser.parse ~file:"<b>" (Lazy.force source)));
    Test.make ~name:"pretty.print"
      (Staged.stage
         (let prog =
            lazy (Minipy.Parser.parse ~file:"<b>" (Lazy.force source))
          in
          fun () -> Minipy.Pretty.program_to_string (Lazy.force prog)));
    Test.make ~name:"interp.exec_fib"
      (Staged.stage
         (let prog =
            lazy
              (Minipy.Parser.parse ~file:"<b>"
                 "def fib(n):\n\
                 \  if n < 2:\n\
                 \    return n\n\
                 \  return fib(n - 1) + fib(n - 2)\n\
                  r = fib(12)\n")
          in
          fun () ->
            let t = Minipy.Interp.create (Minipy.Vfs.create ()) in
            Minipy.Interp.exec_main t (Lazy.force prog)));
    Test.make ~name:"importer.cold_import"
      (Staged.stage (fun () ->
           let t =
             Minipy.Interp.create (Lazy.force tiny).Platform.Deployment.vfs
           in
           Minipy.Interp.exec_main t
             (Minipy.Parser.parse ~file:"<b>" "import tinylib\n"))) ]

(* One kernel per paper table/figure. *)
let experiment_tests =
  [ (* Figure 1: a cold start through all four phases *)
    Test.make ~name:"fig1.cold_start"
      (Staged.stage (fun () -> cold_start (Lazy.force tiny)));
    (* Table 1: synthesizing a benchmark application image *)
    Test.make ~name:"table1.build_app_image"
      (Staged.stage (fun () ->
           Workloads.Codegen.deployment (Lazy.force markdown_spec)));
    (* Figure 2: Eq. 1 billing over a batch of invocations *)
    Test.make ~name:"fig2.pricing_eq1_x1000"
      (Staged.stage (fun () ->
           let acc = ref 0.0 in
           for i = 1 to 1000 do
             acc := !acc
                    +. Platform.Pricing.invocation_cost Platform.Pricing.aws
                         ~duration_ms:(float_of_int i)
                         ~memory_mb:(float_of_int (128 + i))
           done;
           !acc));
    (* Figure 8: the full lambda-trim pipeline *)
    Test.make ~name:"fig8.pipeline_run"
      (Staged.stage (fun () -> Trim.Pipeline.run (Lazy.force tiny)));
    (* Table 2: the FaaSLight baseline *)
    Test.make ~name:"table2.faaslight_optimize"
      (Staged.stage (fun () -> Baselines.Faaslight.optimize (Lazy.force tiny)));
    (* Figure 9: profiling + ranking *)
    Test.make ~name:"fig9.profile_and_rank"
      (Staged.stage (fun () ->
           let p = Trim.Profiler.profile (Lazy.force tiny) in
           Trim.Scoring.rank Trim.Scoring.Combined p));
    (* Table 3: DD debloating of one module *)
    Test.make ~name:"table3.debloat_module"
      (Staged.stage (fun () ->
           let d = Lazy.force tiny in
           let oracle, _ = Trim.Oracle.for_reference d in
           Trim.Debloater.debloat_module ~oracle
             ~protected:Trim.Debloater.String_set.empty d
             ~module_name:"tinylib"));
    (* Figure 10: the DD search itself at a larger component count *)
    Test.make ~name:"fig10.dd_minimize_64"
      (Staged.stage
         (let items = List.init 64 Fun.id in
          let oracle subset =
            List.for_all (fun x -> List.mem x subset) [ 3; 31; 47 ]
          in
          fun () -> Trim.Dd.minimize ~oracle items));
    (* Figure 11: a warm start *)
    Test.make ~name:"fig11.warm_start"
      (Staged.stage
         (let sim =
            lazy
              (let s = Platform.Lambda_sim.create (Lazy.force tiny) in
               ignore (Platform.Lambda_sim.invoke s ~now_s:0.0 ());
               s)
          in
          fun () ->
            Platform.Lambda_sim.invoke (Lazy.force sim) ~now_s:1.0 ()));
    (* Figure 12: the C/R latency model over all variants *)
    Test.make ~name:"fig12.criu_variants"
      (Staged.stage (fun () ->
           List.map
             (fun v ->
                Checkpoint.Criu.init_time_ms ~variant:v ~orig_init_ms:900.0
                  ~orig_post_init_mb:250.0 ~trim_init_ms:400.0
                  ~trim_post_init_mb:150.0 ())
             [ Checkpoint.Criu.Original; Checkpoint.Criu.Cr;
               Checkpoint.Criu.Trimmed; Checkpoint.Criu.Cr_and_trimmed ]));
    (* Figure 13: analytic trace replay *)
    Test.make ~name:"fig13.trace_replay_10k"
      (Staged.stage
         (let trace =
            lazy
              (Platform.Trace.poisson ~seed:3 ~rate_per_s:0.12
                 ~duration_s:86_400.0 ~name:"bench")
          in
          fun () ->
            Platform.Trace.replay (Lazy.force trace) ~keep_alive_s:900.0));
    (* Figure 14: trace matching + SnapStart costing *)
    Test.make ~name:"fig14.snapstart_costing"
      (Staged.stage
         (let trace =
            lazy (Platform.Azure_trace.generate ~n_functions:50 ~seed:1 ())
          in
          fun () ->
            let f =
              Platform.Azure_trace.nearest_function (Lazy.force trace)
                ~memory_mb:256.0 ~exec_ms:120.0
            in
            Checkpoint.Snapstart.costs_over_window
              ~lambda_pricing:Platform.Pricing.aws ~snapshot_mb:200.0
              ~memory_mb:f.Platform.Azure_trace.memory_mb ~billed_ms_cold:350.0
              ~billed_ms_warm:100.0 ~cold_starts:10 ~warm_starts:100
              ~window_s:86_400.0 ()));
    (* Table 4: the fallback path end to end *)
    Test.make ~name:"table4.fallback_invoke"
      (Staged.stage (fun () ->
           Trim.Fallback.invoke ~event:"{\"x\": 1}"
             ~trimmed_sim:(Platform.Lambda_sim.create (Lazy.force tiny_trimmed))
             ~original_sim:(Platform.Lambda_sim.create (Lazy.force tiny))
             ~now_s:0.0 ())) ]

(* Kernels for the caching substrate: content-addressed parse cache,
   copy-on-write image overlays, and the oracle observation memo. The
   cold/cached parse pair over a Table-1 app image is the headline number —
   the cached side must be far (>= 5x) faster since it only looks up
   digests. *)
let markdown_image = lazy (Workloads.Codegen.deployment (Lazy.force markdown_spec))

let resnet_image =
  lazy (Workloads.Codegen.deployment (Workloads.Apps.find "resnet"))

let markdown_py_files =
  lazy
    (let d = Lazy.force markdown_image in
     List.filter
       (fun p -> Filename.check_suffix p ".py")
       (Minipy.Vfs.paths d.Platform.Deployment.vfs))

let cache_tests =
  [ Test.make ~name:"cache.parse_image_cold"
      (Staged.stage (fun () ->
           let d = Lazy.force markdown_image in
           List.map
             (fun p ->
                Minipy.Parser.parse ~file:p
                  (Minipy.Vfs.read_exn d.Platform.Deployment.vfs p))
             (Lazy.force markdown_py_files)));
    Test.make ~name:"cache.parse_image_cached"
      (Staged.stage
         (let warmed =
            lazy
              (let d = Lazy.force markdown_image in
               let c = Minipy.Parse_cache.create () in
               List.iter
                 (fun p ->
                    ignore
                      (Minipy.Parse_cache.parse_vfs ~cache:c
                         d.Platform.Deployment.vfs p))
                 (Lazy.force markdown_py_files);
               (d, c))
          in
          fun () ->
            let d, c = Lazy.force warmed in
            List.map
              (Minipy.Parse_cache.parse_vfs ~cache:c d.Platform.Deployment.vfs)
              (Lazy.force markdown_py_files)));
    Test.make ~name:"cache.vfs_copy"
      (Staged.stage (fun () ->
           Minipy.Vfs.copy (Lazy.force markdown_image).Platform.Deployment.vfs));
    Test.make ~name:"cache.vfs_overlay"
      (Staged.stage (fun () ->
           Minipy.Vfs.overlay
             (Lazy.force markdown_image).Platform.Deployment.vfs));
    Test.make ~name:"cache.image_digest"
      (Staged.stage (fun () ->
           Minipy.Vfs.image_digest
             (Lazy.force markdown_image).Platform.Deployment.vfs));
    (* the same DD search with every oracle query missing the memo... *)
    Test.make ~name:"cache.debloat_oracle_cold"
      (Staged.stage (fun () ->
           let d = Lazy.force tiny in
           let ocache = Trim.Oracle.Cache.create () in
           let oracle, _ = Trim.Oracle.for_reference ~cache:ocache d in
           Trim.Debloater.debloat_module ~oracle_cache:ocache ~oracle
             ~protected:Trim.Debloater.String_set.empty d
             ~module_name:"tinylib"));
    (* ...vs every query answered by a warmed memo *)
    Test.make ~name:"cache.debloat_oracle_memoized"
      (Staged.stage
         (let prepared =
            lazy
              (let d = Lazy.force tiny in
               let ocache = Trim.Oracle.Cache.create () in
               let oracle, _ = Trim.Oracle.for_reference ~cache:ocache d in
               ignore
                 (Trim.Debloater.debloat_module ~oracle_cache:ocache ~oracle
                    ~protected:Trim.Debloater.String_set.empty d
                    ~module_name:"tinylib");
               (d, ocache, oracle))
          in
          fun () ->
            let d, ocache, oracle = Lazy.force prepared in
            Trim.Debloater.debloat_module ~oracle_cache:ocache ~oracle
              ~protected:Trim.Debloater.String_set.empty d
              ~module_name:"tinylib"));
    (* verdict-journal durability overhead: the same DD search with the
       observation memo disabled (every query executes) without vs with the
       flushed-per-record journal. Measured on resnet's torch module — a
       Table-1 app whose oracle queries run real test suites — because the
       journal tax is per record and only meaningful relative to genuine
       query execution (tiny's synthetic ~20us queries would overstate it
       an order of magnitude). The journal lands on tmpfs when the host
       has one so the kernel isolates the journal's own cost (checksum,
       buffered write, flush to the page cache — the boundary that
       survives a process kill) from block-device commit latency, which
       belongs to the user's choice of --journal directory. Must stay
       below 5% wall. *)
    Test.make ~name:"trim.debloat_module_nojournal"
      (Staged.stage (fun () ->
           let d = Lazy.force resnet_image in
           let ocache = Trim.Oracle.Cache.create ~enabled:false () in
           let oracle, _ = Trim.Oracle.for_reference ~cache:ocache d in
           Trim.Debloater.debloat_module ~oracle_cache:ocache ~oracle
             ~protected:Trim.Debloater.String_set.empty d
             ~module_name:"torch"));
    Test.make ~name:"trim.debloat_module_journal"
      (Staged.stage
         (let dir =
            lazy
              (let parent =
                 if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm"
                 then "/dev/shm"
                 else Filename.get_temp_dir_name ()
               in
               let dir = Filename.concat parent "ltrim-bench-journal" in
               Trim.Record_log.mkdir_p dir;
               dir)
          in
          fun () ->
            let d = Lazy.force resnet_image in
            let ocache = Trim.Oracle.Cache.create ~enabled:false () in
            let oracle, _ = Trim.Oracle.for_reference ~cache:ocache d in
            Trim.Debloater.debloat_module ~oracle_cache:ocache ~oracle
              ~journal:{ Trim.Journal.journal_dir = Lazy.force dir;
                         journal_resume = false }
              ~protected:Trim.Debloater.String_set.empty d
              ~module_name:"torch")) ]

(* A fleet configuration representative of the fleet experiment: a mid-size
   app under a fixed-TTL pool with the fallback path enabled. *)
let fleet_bench_config =
  lazy
    (let profile =
       { Fleet.Router.exec_s = 0.2; func_init_s = 0.8; instance_init_s = 0.3;
         memory_mb = 512.0 }
     in
     { (Fleet.Router.default_config ~profile
          (Fleet.Pool.Fixed_ttl { keep_alive_s = 600.0 }))
       with
       Fleet.Router.fallback =
         Some
           (Fleet.Scenario.fallback ~rate:0.01 ~seed:7
              ~original:{ profile with Fleet.Router.func_init_s = 1.6 } ()) })

(* Heap vs calendar-queue backends on one 100k-event schedule: push all,
   then drain. The calendar is sized for the schedule's horizon — the
   regime trace-replay selects it for. Pop order is bit-identical, so this
   pair isolates pure queue cost. *)
let event_queue_drain kind () =
  let q = Fleet.Events.create ~kind () in
  for i = 0 to 99_999 do
    Fleet.Events.push q
      ~time:(float_of_int ((i * 7919) mod 100_000))
      ~rank:(i mod 4) i
  done;
  let rec drain n =
    match Fleet.Events.pop q with None -> n | Some _ -> drain (n + 1)
  in
  drain 0

(* Simulator throughput in events/sec, printed once alongside the
   micro-benchmarks: the fleet experiments sweep tens of configurations, so
   raw event-loop speed bounds how far the sweeps can scale. *)
let print_fleet_throughput () =
  (* the bechamel phase leaves a bloated, fragmented major heap that slows
     these timed kernels ~3x; compact so the recorded numbers reflect the
     kernels, not the benchmark that happened to run before them *)
  Gc.compact ();
  let trace =
    Platform.Trace.poisson ~seed:21 ~rate_per_s:20.0 ~duration_s:5000.0
      ~name:"fleet-throughput"
  in
  let cfg = Lazy.force fleet_bench_config in
  ignore (Fleet.Router.run cfg trace);  (* warm up *)
  let t0 = Sys.time () in
  let reps = 10 in
  let events = ref 0 in
  for _ = 1 to reps do
    events := !events + (Fleet.Router.run cfg trace).Fleet.Router.events_processed
  done;
  let dt = Sys.time () -. t0 in
  let meps = float_of_int !events /. dt /. 1e6 in
  Printf.printf
    "\nfleet simulator throughput: %d events in %.3f s CPU = %.2f M events/s\n"
    !events dt meps;
  meps

(* Streaming vs record mode on one 1M-request trace: the record path
   materializes every [Router.record] and [summarize] re-walks the list
   once per metric; the streaming path folds each record into fixed-size
   sketches as it finalizes. Same simulation, so the ratio isolates the
   aggregation cost — the headline claim of the streaming engine. *)
let print_streaming_speedup () =
  Gc.compact ();
  let trace =
    Platform.Trace.poisson ~seed:21 ~rate_per_s:200.0 ~duration_s:5000.0
      ~name:"fleet-stream-bench"
  in
  let cfg = Lazy.force fleet_bench_config in
  ignore (Fleet.Report.run_stream cfg trace);  (* warm up *)
  let time f =
    let reps = 3 in
    let t0 = Sys.time () in
    for _ = 1 to reps do f () done;
    (Sys.time () -. t0) /. float_of_int reps
  in
  let record_s =
    time (fun () ->
        ignore
          (Fleet.Report.summarize ~label:"bench" cfg
             (Fleet.Router.run cfg trace)))
  in
  (* the pre-PR record path: cons every record onto a list, then sort it
     back to arrival order with polymorphic compare — measured live so the
     headline speedup is against what the engine actually replaced, not a
     guess *)
  let legacy_s =
    time (fun () ->
        let records = ref [] in
        let t =
          Fleet.Router.run_with ~emit:(fun r -> records := r :: !records) cfg
            trace
        in
        let records =
          List.sort
            (fun (a : Fleet.Router.record) b -> compare a.req b.req)
            !records
        in
        ignore
          (Fleet.Report.summarize ~label:"bench" cfg
             { Fleet.Router.records;
               peak_instances = t.Fleet.Router.peak;
               resident_instance_s = t.Fleet.Router.resident_s;
               evictions = t.Fleet.Router.evicted;
               fb_peak_instances = t.Fleet.Router.fb_peak;
               fb_resident_instance_s = t.Fleet.Router.fb_resident_s;
               events_processed = t.Fleet.Router.total_events }))
  in
  let stream_s =
    time (fun () -> ignore (Fleet.Report.run_stream cfg trace))
  in
  let speedup = if stream_s > 0.0 then legacy_s /. stream_s else 0.0 in
  Printf.printf
    "streaming vs record router (%d requests): legacy list+sort %.2f s, \
     record array %.2f s, stream %.2f s = %.2fx vs legacy, %.2fx vs record\n"
    (Platform.Trace.length trace) legacy_s record_s stream_s speedup
    (if stream_s > 0.0 then record_s /. stream_s else 0.0);
  (legacy_s, record_s, stream_s, speedup)

(* The sharded engine at trace-replay scale: the experiment's own 1M-request
   replay (it times itself — wall clock, all configured domains). *)
let print_sharded_throughput () =
  Gc.compact ();
  let r = Experiments.Trace_replay.run () in
  let requests =
    List.fold_left
      (fun acc (g : Fleet.Sharded.group) -> acc + g.Fleet.Sharded.g_requests)
      0 r.Experiments.Trace_replay.groups
  in
  let meps =
    float_of_int requests /. Float.max 1e-9 r.Experiments.Trace_replay.wall_s
    /. 1e6
  in
  Printf.printf
    "sharded fleet replay: %d requests in %.2f s wall = %.2f M req/s \
     (%d shard(s), %d domain(s))\n"
    requests r.Experiments.Trace_replay.wall_s meps
    (Fleet.Sharded.shard_count ()) (Parallel.Pool.jobs ());
  (requests, r.Experiments.Trace_replay.wall_s, meps)

(* Kernels for the ablations and §9 extensions. *)
let extension_tests =
  [ Test.make ~name:"abl.parallel_dd_8workers"
      (Staged.stage
         (let items = List.init 64 Fun.id in
          let oracle subset =
            List.for_all (fun x -> List.mem x subset) [ 3; 31; 47 ]
          in
          fun () -> Trim.Dd.minimize_parallel ~workers:8 ~oracle items));
    Test.make ~name:"abl.seeded_dd"
      (Staged.stage
         (let items = List.init 64 Fun.id in
          let oracle subset =
            List.for_all (fun x -> List.mem x subset) [ 3; 31; 47 ]
          in
          fun () ->
            Trim.Dd.minimize_with_seed ~oracle ~seed:[ 3; 31; 47; 10 ] items));
    Test.make ~name:"abl.statement_dd"
      (Staged.stage (fun () ->
           let d = Lazy.force tiny in
           let oracle, _ = Trim.Oracle.for_reference d in
           Trim.Debloater.debloat_module_statements ~oracle
             ~protected:Trim.Debloater.String_set.empty d
             ~module_name:"tinylib"));
    Test.make ~name:"abl.concurrent_replay_10k"
      (Staged.stage
         (let trace =
            lazy
              (Platform.Trace.poisson ~seed:9 ~rate_per_s:0.12
                 ~duration_s:86_400.0 ~name:"bench-conc")
          in
          fun () ->
            Platform.Trace.replay_concurrent ~exec_s:0.3 (Lazy.force trace)
              ~keep_alive_s:900.0));
    Test.make ~name:"fleet.event_queue_push_pop_10k"
      (Staged.stage (fun () ->
           let q = Fleet.Events.create () in
           for i = 0 to 9_999 do
             Fleet.Events.push q
               ~time:(float_of_int ((i * 7919) mod 10_000))
               ~rank:(i mod 4) i
           done;
           let rec drain n =
             match Fleet.Events.pop q with
             | None -> n
             | Some _ -> drain (n + 1)
           in
           drain 0));
    Test.make ~name:"fleet.event_heap_100k"
      (Staged.stage (event_queue_drain Fleet.Events.Heap));
    Test.make ~name:"fleet.event_wheel_100k"
      (Staged.stage
         (event_queue_drain
            (Fleet.Events.calendar ~horizon_s:100_000.0
               ~expected_events:100_000)));
    Test.make ~name:"fleet.router_poisson_10k"
      (Staged.stage
         (let trace =
            lazy
              (Platform.Trace.poisson ~seed:21 ~rate_per_s:2.0
                 ~duration_s:5000.0 ~name:"fleet-bench")
          in
          fun () ->
            Fleet.Router.run (Lazy.force fleet_bench_config)
              (Lazy.force trace)));
    Test.make ~name:"fleet.router_record_summarize_10k"
      (Staged.stage
         (let trace =
            lazy
              (Platform.Trace.poisson ~seed:21 ~rate_per_s:2.0
                 ~duration_s:5000.0 ~name:"fleet-bench")
          in
          fun () ->
            let cfg = Lazy.force fleet_bench_config in
            Fleet.Report.summarize ~label:"bench" cfg
              (Fleet.Router.run cfg (Lazy.force trace))));
    Test.make ~name:"fleet.router_stream_10k"
      (Staged.stage
         (let trace =
            lazy
              (Platform.Trace.poisson ~seed:21 ~rate_per_s:2.0
                 ~duration_s:5000.0 ~name:"fleet-bench")
          in
          fun () ->
            Fleet.Report.run_stream (Lazy.force fleet_bench_config)
              (Lazy.force trace)));
    Test.make ~name:"fleet.fault_plan_100k"
      (Staged.stage
         (let faults =
            { Fleet.Faults.seed = 42; init_failure_rate = 0.05;
              crash_rate = 0.02; transient_error_rate = 0.05;
              churn_rate = 0.02 }
          in
          fun () ->
            (* the per-attempt draws the router makes on its hot path *)
            let acc = ref 0 in
            for req = 0 to 99_999 do
              (match
                 Fleet.Faults.attempt_fault faults ~cold:(req land 7 = 0)
                   ~req ~attempt:(req land 3)
               with
               | Fleet.Faults.No_fault -> ()
               | _ -> incr acc);
              if Fleet.Faults.churned faults ~fb:false ~req ~attempt:0 then
                incr acc
            done;
            !acc));
    Test.make ~name:"fleet.router_faulted_10k"
      (Staged.stage
         (let trace =
            lazy
              (Platform.Trace.poisson ~seed:21 ~rate_per_s:2.0
                 ~duration_s:5000.0 ~name:"fleet-fault-bench")
          in
          let cfg =
            lazy
              { (Lazy.force fleet_bench_config) with
                Fleet.Router.faults =
                  { Fleet.Faults.seed = 42; init_failure_rate = 0.05;
                    crash_rate = 0.02; transient_error_rate = 0.05;
                    churn_rate = 0.02 };
                resilience =
                  { Fleet.Resilience.none with
                    Fleet.Resilience.retry =
                      Some Fleet.Resilience.default_retry } }
          in
          fun () -> Fleet.Router.run (Lazy.force cfg) (Lazy.force trace)));
    Test.make ~name:"metrics.percentile_100k"
      (Staged.stage
         (* proves the sort-once array rewrite: the old List.nth version
            was O(n^2) and took seconds at this size *)
         (let xs =
            lazy
              (List.init 100_000 (fun i ->
                   float_of_int ((i * 7919) mod 100_000)))
          in
          fun () -> Platform.Metrics.p99 (Lazy.force xs)));
    Test.make ~name:"substrate.json_roundtrip"
      (Staged.stage
         (let v =
            lazy
              (Minipy.Json_support.loads
                 "{\"k\": [1, 2.5, true, null, \"s\"], \"n\": {\"a\": 1}}")
          in
          fun () ->
            Minipy.Json_support.loads (Minipy.Json_support.dumps (Lazy.force v)))) ]

(* Kernels for the domain work pool (§9 parallel execution). The DD kernels
   run the same committed-prefix search against real pools of 1/2/4/8
   domains: queries are scheduling-invariant, so only wall-clock — bounded
   by physical cores — may differ between them. Pools are created lazily
   and reused across runs; [reap_bench_pools] must run before any later
   timed kernel, because in OCaml 5 every lingering idle domain joins the
   stop-the-world barrier of every minor GC — left alive, the leaked
   workers slow allocation-heavy single-domain kernels several-fold. *)
let bench_pools : Parallel.Pool.t list ref = ref []

let bench_pool domains =
  lazy
    (let p = Parallel.Pool.create ~domains in
     bench_pools := p :: !bench_pools;
     p)

let reap_bench_pools () =
  List.iter Parallel.Pool.shutdown !bench_pools;
  bench_pools := []

let dd_pool_kernel domains =
  Test.make ~name:(Printf.sprintf "par.dd_oracle_%ddomains" domains)
    (Staged.stage
       (let pool = bench_pool domains in
        let setup =
          lazy
            (let app = Workloads.Suite.tiny_app ~attrs:48 () in
             let file = "site-packages/tinylib/__init__.py" in
             let prog =
               Minipy.Parser.parse ~file
                 (Minipy.Vfs.read_exn app.Platform.Deployment.vfs file)
             in
             (app, file, Trim.Attrs.attrs_of_program prog))
        in
        fun () ->
          let app, file, candidates = Lazy.force setup in
          (* fresh memo per run — the shared global memo would answer every
             query after the first run and leave nothing to parallelize *)
          let cache = Trim.Oracle.Cache.create () in
          let oracle, _ = Trim.Oracle.for_reference ~cache app in
          let dd_oracle subset =
            oracle (Trim.Debloater.with_restricted app ~file ~keep:subset)
          in
          Trim.Dd.minimize_parallel ~pool:(Lazy.force pool) ~oracle:dd_oracle
            candidates))

(* Pool kernels only run at domain counts the host actually has: timing an
   oversubscribed pool (8 domains on a 1-core container) measures scheduler
   thrash, not the search. Skipped kernels are recorded in the JSON so a
   missing row reads as "host too small", not "kernel removed". *)
let host_domains = Domain.recommended_domain_count ()

let dd_pool_domains = [ 1; 2; 4; 8 ]

let skipped_kernels =
  List.filter_map
    (fun d ->
       if d > host_domains then
         Some (Printf.sprintf "par.dd_oracle_%ddomains" d)
       else None)
    dd_pool_domains

let parallel_tests =
  [ Test.make ~name:"par.pool_overhead"
      (Staged.stage
         (* submit/collect cost of 64 no-op tasks: the fixed price every
            parallel DD batch pays on top of its oracle work *)
         (let pool = bench_pool 4 in
          let xs = List.init 64 Fun.id in
          fun () -> Parallel.Pool.map (Lazy.force pool) Fun.id xs)) ]
  @ List.filter_map
      (fun d -> if d <= host_domains then Some (dd_pool_kernel d) else None)
      dd_pool_domains
  @ [ Test.make ~name:"par.pipeline_fig9_jobs4"
      (Staged.stage (fun () ->
           (* the full fig9 experiment through the jobs=4 fan-out; global
              caches stay warm, so this isolates orchestration overhead *)
           Experiments.Common.reset_cache ();
           Parallel.Pool.configure ~jobs:4;
           Fun.protect
             ~finally:(fun () -> Parallel.Pool.configure ~jobs:1)
             (fun () ->
                match Experiments.Registry.find "fig9" with
                | Some e -> ignore (e.Experiments.Registry.print ())
                | None -> ()))) ]

(* Incremental re-debloating kernels: the same app debloated from scratch
   vs replayed against its own manifest. Private memo per run, jobs pinned
   to 1 — the kernels time the search and the replay, nothing else. *)
let redebloat_setup =
  lazy
    (let d = Workloads.Suite.deployment_of "markdown" in
     let path = Filename.temp_file "ltrim-bench-redebloat" ".manifest" in
     ignore
       (Trim.Pipeline.run
          ~options:{ Trim.Pipeline.default_options with
                     k = 3; manifest_path = Some path;
                     oracle_cache = Some (Trim.Oracle.Cache.create ()) }
          ~jobs:1 d);
     let baseline = Trim.Manifest.load ~path in
     assert (baseline <> None);
     (d, baseline))

let redebloat_run ~warm () =
  let d, baseline = Lazy.force redebloat_setup in
  Trim.Pipeline.run
    ~options:{ Trim.Pipeline.default_options with
               k = 3;
               baseline = (if warm then baseline else None);
               oracle_cache = Some (Trim.Oracle.Cache.create ()) }
    ~jobs:1 d

let redebloat_tests =
  [ Test.make ~name:"trim.redebloat_cold"
      (Staged.stage (fun () -> ignore (redebloat_run ~warm:false ())));
    Test.make ~name:"trim.redebloat_warm"
      (Staged.stage (fun () -> ignore (redebloat_run ~warm:true ()))) ]

(* The ISSUE's headline acceptance number: fresh oracle queries cold vs
   warm after a one-module edit (deterministic counters, not wall-clock). *)
let incremental_query_counts () =
  let d, _ = Lazy.force redebloat_setup in
  let path = Filename.temp_file "ltrim-bench-incr" ".manifest" in
  ignore
    (Trim.Pipeline.run
       ~options:{ Trim.Pipeline.default_options with
                  k = 3; manifest_path = Some path;
                  oracle_cache = Some (Trim.Oracle.Cache.create ()) }
       ~jobs:1 d);
  let baseline = Trim.Manifest.load ~path in
  let edited = Platform.Deployment.overlay d in
  let file = "site-packages/markdown/__init__.py" in
  Minipy.Vfs.add_file edited.Platform.Deployment.vfs file
    (Minipy.Vfs.read_exn edited.Platform.Deployment.vfs file
     ^ "\n_bench_edit = 1\n");
  let queries baseline =
    (Trim.Pipeline.run
       ~options:{ Trim.Pipeline.default_options with
                  k = 3; baseline;
                  oracle_cache = Some (Trim.Oracle.Cache.create ()) }
       ~jobs:1 edited)
      .Trim.Pipeline.total_oracle_queries
  in
  (queries None, queries baseline)

let benchmark tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"lambda-trim" ~fmt:"%s %s" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Analyze.merge ols instances [ results ]

(* Flatten Bechamel's result tables into (name, ns/run, r^2) rows shared by
   the text and JSON outputs. *)
let rows_of_results results : (string * float option * float option) list =
  Hashtbl.fold
    (fun _instance tbl acc ->
       Hashtbl.fold
         (fun name ols acc ->
            let estimate =
              match Analyze.OLS.estimates ols with
              | Some [ e ] -> Some e
              | _ -> None
            in
            (name, estimate, Analyze.OLS.r_square ols) :: acc)
         tbl acc)
    results []
  |> List.sort compare

let print_rows rows =
  (* flat text output: test name, ns/run estimate *)
  Printf.printf "\n%-44s %16s %10s\n" "benchmark" "ns/run" "r^2";
  List.iter
    (fun (name, estimate, r2) ->
       let estimate =
         match estimate with
         | Some e -> Printf.sprintf "%16.1f" e
         | None -> "               -"
       in
       let r2 =
         match r2 with
         | Some r -> Printf.sprintf "%10.4f" r
         | None -> "         -"
       in
       Printf.printf "%-44s %s %s\n" name estimate r2)
    rows

(* --- end-to-end caching comparison ---------------------------------------- *)

(* Wall-clock of one experiment regenerated from scratch with the caching
   substrate disabled vs enabled. Resets the experiments' pipeline memo and
   both global caches before each run so each timing starts cold; "enabled"
   therefore measures within-run reuse only. *)
let time_experiment ~caches_enabled id =
  let entry =
    match Experiments.Registry.find id with
    | Some e -> e
    | None -> invalid_arg ("unknown experiment: " ^ id)
  in
  Experiments.Common.reset_cache ();
  Minipy.Parse_cache.clear Minipy.Parse_cache.global;
  Trim.Oracle.Cache.clear Trim.Oracle.Cache.global;
  Minipy.Parse_cache.set_enabled Minipy.Parse_cache.global caches_enabled;
  Trim.Oracle.Cache.set_enabled Trim.Oracle.Cache.global caches_enabled;
  let t0 = Unix.gettimeofday () in
  ignore (entry.Experiments.Registry.print ());
  Unix.gettimeofday () -. t0

let e2e_cache_timings () =
  let timings =
    List.map
      (fun id ->
         let off = time_experiment ~caches_enabled:false id in
         let on = time_experiment ~caches_enabled:true id in
         (id, off, on))
      [ "fig9"; "table2" ]
  in
  Minipy.Parse_cache.set_enabled Minipy.Parse_cache.global true;
  Trim.Oracle.Cache.set_enabled Trim.Oracle.Cache.global true;
  Experiments.Common.reset_cache ();
  Printf.printf "\nend-to-end experiment wall-clock, caches off -> on:\n";
  List.iter
    (fun (id, off, on) ->
       Printf.printf "  %-8s %7.3f s -> %7.3f s (%.1fx)\n" id off on (off /. on))
    timings;
  timings

(* --- end-to-end parallel speedup ------------------------------------------- *)

(* Wall-clock of fig9 regenerated from scratch at --jobs 1 vs --jobs 4.
   Caches are cleared before each run so both sides do the full oracle work;
   the committed CSV is bit-identical either way — only the wall-clock (and
   hence this section of the JSON) depends on the host's core count, which
   is recorded alongside so a 1-core container's honest ~1.0x is not read as
   a regression. *)
let time_fig9 ~jobs =
  Experiments.Common.reset_cache ();
  Minipy.Parse_cache.clear Minipy.Parse_cache.global;
  Trim.Oracle.Cache.clear Trim.Oracle.Cache.global;
  Parallel.Pool.configure ~jobs;
  let t0 = Unix.gettimeofday () in
  (match Experiments.Registry.find "fig9" with
   | Some e -> ignore (e.Experiments.Registry.print ())
   | None -> ());
  let dt = Unix.gettimeofday () -. t0 in
  Parallel.Pool.configure ~jobs:1;
  dt

let e2e_parallel_timings () =
  let host = Domain.recommended_domain_count () in
  let j1 = time_fig9 ~jobs:1 in
  let j4 = time_fig9 ~jobs:4 in
  Experiments.Common.reset_cache ();
  Printf.printf
    "\nfig9 end-to-end wall-clock, --jobs 1 -> --jobs 4 (host: %d core%s):\n\
    \  %7.3f s -> %7.3f s (%.2fx)\n"
    host (if host = 1 then "" else "s")
    j1 j4 (if j4 > 0.0 then j1 /. j4 else 0.0);
  (host, j1, j4)

(* --- JSON output ----------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ns_of rows name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) rows with
  | Some (_, Some e, _) -> Some e
  | _ -> None

let write_json path rows e2e fleet_meps (par_host, par_j1, par_j4)
    (stream_legacy_s, stream_record_s, stream_stream_s, stream_speedup)
    (sharded_requests, sharded_wall_s, sharded_meps)
    (incr_cold_q, incr_warm_q) =
  (* write-temp-then-rename: a crash mid-write never tears the committed
     benchmark JSON *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"schema\": \"ltrim-bench/1\",\n";
  (* headline derived metric: cached re-parse speedup on a Table-1 image *)
  (match
     ( ns_of rows "lambda-trim cache.parse_image_cold",
       ns_of rows "lambda-trim cache.parse_image_cached" )
   with
   | Some cold, Some cached when cached > 0.0 ->
     out "  \"parse_cache_speedup\": %.2f,\n" (cold /. cached)
   | _ -> ());
  out "  \"e2e_wall_s\": {\n";
  out "%s"
    (String.concat ",\n"
       (List.map
          (fun (id, off, on) ->
             Printf.sprintf
               "    \"%s\": { \"caches_off\": %.4f, \"caches_on\": %.4f }"
               (json_escape id) off on)
          e2e));
  out "\n  },\n";
  out "  \"parallel_speedup\": {\n";
  out "    \"host_domains\": %d,\n" par_host;
  out
    "    \"fig9\": { \"jobs1_s\": %.4f, \"jobs4_s\": %.4f, \"speedup\": %.2f }\n"
    par_j1 par_j4
    (if par_j4 > 0.0 then par_j1 /. par_j4 else 0.0);
  out "  },\n";
  (* durability tax: journaled vs unjournaled DD on the same module with the
     observation memo off (kernels above); must stay below 5% wall *)
  (match
     ( ns_of rows "lambda-trim trim.debloat_module_nojournal",
       ns_of rows "lambda-trim trim.debloat_module_journal" )
   with
   | Some base, Some j when base > 0.0 ->
     out
       "  \"journal_overhead\": { \"nojournal_ns\": %.1f, \
        \"journal_ns\": %.1f, \"overhead_pct\": %.2f },\n"
       base j ((j -. base) /. base *. 100.0)
   | _ -> ());
  out "  \"fleet_throughput_meps\": %.3f,\n" fleet_meps;
  (* streaming vs record aggregation on one 1M-request trace (same
     simulation; ratio isolates aggregation cost) *)
  out
    "  \"streaming_router\": { \"legacy_list_sort_s\": %.3f, \
     \"record_summarize_s\": %.3f, \"stream_s\": %.3f, \
     \"speedup_vs_legacy\": %.2f },\n"
    stream_legacy_s stream_record_s stream_stream_s stream_speedup;
  (* the sharded engine at trace-replay scale; host_domains records how
     many domains the wall-clock number was measured on *)
  out
    "  \"fleet_sharded\": { \"host_domains\": %d, \"shards\": %d, \
     \"requests\": %d, \"wall_s\": %.3f },\n"
    par_host
    (Fleet.Sharded.shard_count ())
    sharded_requests sharded_wall_s;
  out "  \"fleet_sharded_throughput_meps\": %.3f,\n" sharded_meps;
  (* incremental re-debloating: wall ratio of the kernels above, plus the
     deterministic query counters after a one-module edit (the >= 10x
     acceptance target lives on the query ratio, which no host can skew) *)
  (match
     ( ns_of rows "lambda-trim trim.redebloat_cold",
       ns_of rows "lambda-trim trim.redebloat_warm" )
   with
   | Some cold, Some warm when warm > 0.0 ->
     out
       "  \"incremental_speedup\": { \"cold_ns\": %.1f, \"warm_ns\": %.1f, \
        \"wall_speedup\": %.2f, \"cold_queries\": %d, \"warm_queries\": %d, \
        \"query_ratio\": %.1f },\n"
       cold warm (cold /. warm) incr_cold_q incr_warm_q
       (if incr_warm_q > 0 then
          float_of_int incr_cold_q /. float_of_int incr_warm_q
        else Float.infinity)
   | _ -> ());
  (* pool kernels skipped because the host has fewer domains than they need *)
  out "  \"skipped_kernels\": [%s],\n"
    (String.concat ", "
       (List.map (fun k -> Printf.sprintf "\"%s\"" (json_escape k))
          skipped_kernels));
  out "  \"micro_ns_per_run\": {\n";
  let micro =
    List.filter_map
      (fun (name, estimate, _) ->
         Option.map
           (fun e ->
              Printf.sprintf "    \"%s\": %.1f" (json_escape name) e)
           estimate)
      rows
  in
  out "%s" (String.concat ",\n" micro);
  out "\n  }\n}\n";
  close_out oc;
  Sys.rename tmp path;
  Printf.printf "\nwrote %s\n" path

let rec json_path_of_args = function
  | "--json" :: path :: _ -> Some path
  | _ :: rest -> json_path_of_args rest
  | [] -> None

let () =
  let args = Array.to_list Sys.argv in
  let skip_experiments = List.mem "--no-experiments" args in
  let skip_micro = List.mem "--no-micro" args in
  let json_path = json_path_of_args args in
  if List.mem "--fleet-kernels" args then begin
    (* just the timed fleet kernels — the CI smoke and quick local runs *)
    ignore (print_fleet_throughput ());
    ignore (print_streaming_speedup ());
    ignore (print_sharded_throughput ());
    exit 0
  end;
  if not skip_experiments then run_experiments ();
  if not skip_micro then begin
    print_string
      (Experiments.Common.header
         "Bechamel micro-benchmarks (one kernel per table/figure + substrate)");
    List.iter
      (fun k -> Printf.printf "skipping %s (host has %d domain%s)\n" k
          host_domains (if host_domains = 1 then "" else "s"))
      skipped_kernels;
    let results =
      benchmark
        (substrate_tests @ experiment_tests @ cache_tests @ extension_tests
         @ parallel_tests @ redebloat_tests)
    in
    let rows = rows_of_results results in
    print_rows rows;
    reap_bench_pools ();
    let fleet_meps = print_fleet_throughput () in
    let streaming = print_streaming_speedup () in
    let sharded = print_sharded_throughput () in
    let e2e = e2e_cache_timings () in
    let par = e2e_parallel_timings () in
    let incr = incremental_query_counts () in
    Printf.printf
      "incremental re-debloat, one-module edit: %d cold -> %d warm oracle \
       queries\n"
      (fst incr) (snd incr);
    match json_path with
    | Some path ->
      write_json path rows e2e fleet_meps par streaming sharded incr
    | None -> ()
  end
