(* perfbench: the repository's end-to-end benchmark with per-layer
   attribution. It drives the system only through public library functions:

   - debloat-cold    Trim.Pipeline.run over the 21-app corpus, caches cleared
                     before every app (a fresh `ltrim debloat <app> -j 1`);
   - redebloat-warm  the same corpus re-debloated against its manifests and a
                     persistent oracle memo after each seeded one-line edit
                     (`ltrim redebloat --state D --memo-dir D -j 1`);
   - trace-replay    Fleet.Sharded.run over 1600 Azure-shaped functions, 3 h,
                     {fixed-ttl, adaptive} x {original, trimmed}.

   With --trace 0 it times the workload untouched and prints the end-to-end
   metrics. With --trace 1 it alternates untouched passes with passes that it
   composes itself from the same public stage functions, each call wrapped in
   an in-memory span, and prints per-layer self times that sum to the traced
   end-to-end time. Every pass's output is checked against a reference the
   timed code does not produce; failures count in [failed].

   All work runs on one domain (jobs = 1, shards = 1). The last stdout line is
   one JSON object; see perfbench/README.md for the metric definitions. *)

let now = Unix.gettimeofday

(* ---------------------------------------------------------------- args *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;            (* self-check size: one pass minimum, small fleet *)
  write_expected : string option;
}

let usage =
  "bench.exe --workload (debloat-cold|redebloat-warm|trace-replay) --seed N \
   --seconds S --trace (0|1) [--small] | --write-expected FILE"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and small = ref false and write_expected = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--small" :: rest -> small := true; go rest
    | "--write-expected" :: v :: rest -> write_expected := Some v; go rest
    | [] -> ()
    | a :: _ -> failwith (Printf.sprintf "unknown argument %S\n%s" a usage)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!write_expected, !seed, !seconds, !trace) with
  | Some _, _, _, _ ->
    { workload = ""; seed = 0; seconds = 0.0; trace = false; small = false;
      write_expected = !write_expected }
  | None, Some seed, Some seconds, Some trace
    when List.mem !workload [ "debloat-cold"; "redebloat-warm"; "trace-replay" ]
         && seconds > 0.0 ->
    { workload = !workload; seed; seconds; trace; small = !small;
      write_expected = None }
  | _ -> failwith usage

(* ---------------------------------------------------------- statistics *)

(* nearest-rank percentile *)
let percentile p (xs : float list) =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median = percentile 50.0
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---------------------------------------------------------------- spans *)

(* In-memory spans around calls into the program's public functions, written
   out when the run ends. *)
module Tracer = struct
  type span = {
    id : int;
    parent : int;          (* -1 for a root *)
    op : int;              (* root ordinal: spans of one operation share it *)
    layer : string;
    t0 : float;
    mutable t1 : float;
  }

  type t = {
    mutable spans : span list;  (* completed, newest first *)
    mutable stack : span list;
    mutable next : int;
    mutable op : int;
    mutable last_root : float;  (* duration of the last completed root *)
  }

  let create () = { spans = []; stack = []; next = 0; op = -1; last_root = 0.0 }
  let dur s = s.t1 -. s.t0

  let span t layer f =
    let parent =
      match t.stack with
      | p :: _ -> p.id
      | [] -> t.op <- t.op + 1; -1
    in
    let s = { id = t.next; parent; op = t.op; layer; t0 = now (); t1 = 0.0 } in
    t.next <- t.next + 1;
    t.stack <- s :: t.stack;
    let finish () =
      s.t1 <- now ();
      t.stack <- List.tl t.stack;
      if parent < 0 then t.last_root <- dur s;
      t.spans <- s :: t.spans
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e

  (* Self time per layer: a span's duration minus its children's. Root spans
     named "op" are the operations themselves; their self time is what no
     layer row covers, reported as [unattributed]. *)
  let self_times t =
    let child = Hashtbl.create 4096 in
    List.iter
      (fun s ->
         if s.parent >= 0 then
           Hashtbl.replace child s.parent
             (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
      t.spans;
    let rows = Hashtbl.create 16 in
    List.iter
      (fun s ->
         let self =
           dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
         in
         let layer = if s.layer = "op" then "unattributed" else s.layer in
         Hashtbl.replace rows layer
           (self +. Option.value ~default:0.0 (Hashtbl.find_opt rows layer)))
      t.spans;
    rows

  let durations t layer =
    List.filter_map
      (fun s -> if String.equal s.layer layer then Some (dur s) else None)
      t.spans

  let write t ~path =
    let oc = open_out path in
    Printf.fprintf oc "id,parent,op,layer,start_us,dur_us\n";
    let origin =
      List.fold_left (fun m s -> Float.min m s.t0) Float.infinity t.spans
    in
    List.iter
      (fun s ->
         Printf.fprintf oc "%d,%d,%d,%s,%.1f,%.1f\n" s.id s.parent s.op
           s.layer ((s.t0 -. origin) *. 1e6) (dur s *. 1e6))
      (List.rev t.spans);
    close_out oc
end

(* --------------------------------------------------------- file helpers *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let out_dir = Filename.concat ".bench_build" "perfbench"

(* ------------------------------------------------ debloat output checks *)

let opts = Trim.Pipeline.default_options

(* The optimized image plus every module's removed attributes: what a
   correct debloat of an app reproduces exactly. *)
let fingerprint (optimized : Platform.Deployment.t)
    (results : Trim.Debloater.module_result list) =
  Platform.Deployment.image_digest optimized
  ^ "\t"
  ^ String.concat ";"
      (List.map
         (fun (m : Trim.Debloater.module_result) ->
            Printf.sprintf "%s:%d:%s" m.Trim.Debloater.dm_module
              m.Trim.Debloater.attrs_before
              (String.concat "," m.Trim.Debloater.removed_attrs))
         results)

(* Table 3's representative module: the most attributes, first on ties. *)
let representative (results : Trim.Debloater.module_result list) =
  List.fold_left
    (fun best (m : Trim.Debloater.module_result) ->
       match best with
       | Some (b : Trim.Debloater.module_result)
         when m.Trim.Debloater.attrs_before <= b.Trim.Debloater.attrs_before ->
         best
       | _ -> Some m)
    None results

let expected_path = Filename.concat "perfbench" "expected-debloat.tsv"

(* app -> fingerprint, generated once with --write-expected *)
let load_expected () =
  read_file expected_path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
      match String.index_opt line '\t' with
      | Some i ->
        Some (String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1))
      | None -> None)

(* app -> (example_module, attrs_removed, attrs_pre) from the committed
   Table 3 CSV *)
let load_table3 () =
  read_file (Filename.concat "results" (Filename.concat "csv" "table3.csv"))
  |> String.split_on_char '\n' |> List.tl
  |> List.filter_map (fun line ->
      match String.split_on_char ',' line with
      | [ app; _; _; m; removed; pre; _; _ ] ->
        Some (app, (m, int_of_string removed, int_of_string pre))
      | _ -> None)

type refs = {
  expected : (string * string) list;
  table3 : (string * (string * int * int)) list;
}

let load_refs () = { expected = load_expected (); table3 = load_table3 () }

let table3_ok refs app results =
  match (List.assoc_opt app refs.table3, representative results) with
  | Some (m, removed, pre), Some r ->
    String.equal m r.Trim.Debloater.dm_module
    && removed = List.length r.Trim.Debloater.removed_attrs
    && pre = r.Trim.Debloater.attrs_before
  | _ -> false

(* ------------------------------------------------- traced pipeline *)

(* The search digest exactly as Debloater.debloat_module_incremental
   computes it before deciding replay / warm start / fresh search. The traced
   pass calls it just before that function: the parse cache and the vfs's
   per-file digest memo then answer most of the internal call, so this span
   carries the digest's cost and [dd] keeps only the residue. *)
let search_digest (d : Platform.Deployment.t) ~protected ~module_name =
  match Minipy.Importer.init_file_of d.Platform.Deployment.vfs module_name with
  | None -> Trim.Debloater.builtin_digest
  | Some file ->
    let source = Minipy.Vfs.read_exn d.Platform.Deployment.vfs file in
    let all = Trim.Attrs.attrs_of_program (Minipy.Parse_cache.parse ~file source) in
    let prot = Trim.Debloater.String_set.mem in
    Trim.Debloater.module_search_digest d ~module_name ~file
      ~protected_list:(List.filter (fun a -> prot a protected) all)
      ~candidates:(List.filter (fun a -> not (prot a protected)) all)

(* Trim.Pipeline.run's sequential (jobs = 1) stages, called one by one so
   each call can be spanned. A [manifest_path] selects the manifest-driven
   stage 3 against [baseline] and writes this run's manifest there, as the
   pipeline does when given both. Returns the optimized deployment and the
   module results. *)
let traced_pipeline tr ~cache ?baseline ?manifest_path
    (app : Platform.Deployment.t) =
  let sp layer f = Tracer.span tr layer f in
  let analysis = sp "static_analyzer" (fun () -> Trim.Static_analyzer.analyze app) in
  let ranked =
    sp "profiler" (fun () ->
        let profile = Trim.Profiler.profile app in
        List.map
          (fun mp -> mp.Trim.Profiler.mp_name)
          (Trim.Scoring.top_k opts.Trim.Pipeline.scoring profile
             ~k:opts.Trim.Pipeline.k))
  in
  let oracle, _ =
    sp "oracle.reference" (fun () -> Trim.Oracle.for_reference ~cache app)
  in
  let oracle d = sp "oracle.query" (fun () -> oracle d) in
  let optimized, entries =
    List.fold_left
      (fun (d, acc) module_name ->
         let protected =
           sp "static_analyzer" (fun () ->
               Trim.Static_analyzer.protected_attrs analysis ~module_name)
         in
         match manifest_path with
         | None ->
           let d', r =
             sp "dd" (fun () ->
                 Trim.Debloater.debloat_module ~oracle_cache:cache ~oracle
                   ~protected d ~module_name)
           in
           (d', (r, "") :: acc)
         | Some _ ->
           let entry =
             Option.bind baseline (fun m -> Trim.Manifest.find_module m module_name)
           in
           sp "dd" (fun () ->
               ignore
                 (sp "debloater.digest" (fun () ->
                      search_digest d ~protected ~module_name));
               let d', r, _kind, digest =
                 Trim.Debloater.debloat_module_incremental ~oracle_cache:cache
                   ~oracle ~protected ~baseline:entry d ~module_name
               in
               (d', (r, digest) :: acc)))
      (app, []) ranked
  in
  let entries = List.rev entries in
  let results = List.map fst entries in
  (match manifest_path with
   | Some path ->
     Trim.Manifest.save ~path
       { Trim.Manifest.mf_app = app.Platform.Deployment.name;
         mf_backend = Minipy.Backend.to_string (Minipy.Backend.current ());
         mf_variant = Minipy.Interp.lazy_config_of_vfs app.Platform.Deployment.vfs;
         mf_scoring = Trim.Scoring.method_name opts.Trim.Pipeline.scoring;
         mf_k = opts.Trim.Pipeline.k;
         mf_input_digest = Platform.Deployment.image_digest app;
         mf_output_digest = Platform.Deployment.image_digest optimized;
         mf_ranked = ranked;
         mf_modules =
           List.map2
             (fun m ((r : Trim.Debloater.module_result), digest) ->
                { Trim.Manifest.me_module = m;
                  me_file = r.Trim.Debloater.dm_file;
                  me_digest = digest;
                  me_removed = r.Trim.Debloater.removed_attrs;
                  me_queries = r.Trim.Debloater.oracle_queries;
                  me_cache_hits = r.Trim.Debloater.cache_hits;
                  me_iterations = r.Trim.Debloater.dd_iterations })
             ranked entries }
   | None -> ());
  (optimized, results)

(* ------------------------------------------------------------ results *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable samples : float list;   (* seconds per operation sample *)
  mutable timed : float;          (* seconds inside timed windows *)
  mutable setups : float list;    (* seconds per set-up repetition *)
  mutable plain_passes : float list;  (* untraced pass e2e, seconds *)
  mutable traced_passes : float list; (* traced pass e2e, seconds *)
  mutable counters : (string * float) list;  (* per-layer sums *)
  mutable failures : string list;
}

let new_run () =
  { attempted = 0; failed = 0; samples = []; timed = 0.0; setups = [];
    plain_passes = [];
    traced_passes = []; counters = []; failures = [] }

let check run ok what =
  run.attempted <- run.attempted + 1;
  if not ok then begin
    run.failed <- run.failed + 1;
    if List.length run.failures < 5 then run.failures <- what :: run.failures
  end

let bump run key v =
  run.counters <-
    (key, v +. Option.value ~default:0.0 (List.assoc_opt key run.counters))
    :: List.remove_assoc key run.counters

let counter run key = Option.value ~default:0.0 (List.assoc_opt key run.counters)

(* Run passes until [seconds] of loop time have elapsed and at least
   [min_passes] ran. In traced mode passes alternate untraced / traced, so
   both halves see the same host conditions. *)
let loop ~seconds ~min_passes ~traced pass =
  let start = now () in
  let i = ref 0 in
  while !i < min_passes || now () -. start < seconds do
    pass ~index:!i ~traced:(traced && !i mod 2 = 1);
    incr i
  done

let gc_delta run f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  bump run "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  bump run "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  v

let clear_global_caches () =
  Minipy.Parse_cache.clear Minipy.Parse_cache.global;
  Trim.Oracle.Cache.clear Trim.Oracle.Cache.global

let cache_counts (c : Trim.Oracle.Cache.t) =
  (Trim.Oracle.Cache.hits c, Trim.Oracle.Cache.misses c,
   Trim.Oracle.Cache.store_hits c)

(* Run one set-up repetition and record its wall time. Set-up runs again
   before every pass (every epoch on redebloat-warm), so its median, like
   the pass metrics, samples host conditions across the whole run. *)
let setup run f =
  let t0 = now () in
  let v = f () in
  run.setups <- (now () -. t0) :: run.setups;
  v

(* --------------------------------------------------- layer probes *)

(* Front-end throughput: parse every source file of every corpus image into
   a fresh cache. *)
let probe_parse run corpus =
  let bytes = ref 0 and secs = ref 0.0 in
  for _ = 1 to 3 do
    List.iter
      (fun (d : Platform.Deployment.t) ->
         let vfs = d.Platform.Deployment.vfs in
         let cache = Minipy.Parse_cache.create () in
         List.iter
           (fun path ->
              if Filename.check_suffix path ".py" then begin
                let len = String.length (Minipy.Vfs.read_exn vfs path) in
                let t0 = now () in
                ignore (Minipy.Parse_cache.parse_vfs ~cache vfs path);
                secs := !secs +. (now () -. t0);
                bytes := !bytes + len
              end)
           (Minipy.Vfs.paths vfs))
      corpus
  done;
  bump run "minipy.parse_mb_per_s"
    (if !secs > 0.0 then float_of_int !bytes /. 1e6 /. !secs else 0.0)

(* What one oracle test execution costs without the memo: a fresh simulator
   and a cold invocation, then a warm invocation on the live instance. The
   parse cache is warm, as it is for most oracle queries. *)
let probe_lambda_sim run corpus =
  let cold = ref [] and warm = ref [] in
  List.iter
    (fun (d : Platform.Deployment.t) ->
       List.iter
         (fun (tc : Platform.Deployment.test_case) ->
            let invoke sim now_s =
              Platform.Lambda_sim.invoke sim ~now_s
                ~event:tc.Platform.Deployment.tc_event
                ~context:tc.Platform.Deployment.tc_context ()
            in
            ignore (invoke (Platform.Lambda_sim.create ~obs:false d) 0.0);
            for _ = 1 to 3 do
              let t0 = now () in
              let sim = Platform.Lambda_sim.create ~obs:false d in
              ignore (invoke sim 0.0);
              let t1 = now () in
              ignore (invoke sim 1.0);
              let t2 = now () in
              cold := (t1 -. t0) :: !cold;
              warm := (t2 -. t1) :: !warm
            done)
         d.Platform.Deployment.test_cases)
    corpus;
  bump run "lambda_sim.cold_invoke_us" (median !cold *. 1e6);
  bump run "lambda_sim.warm_invoke_us" (median !warm *. 1e6)

(* --------------------------------------------------- debloat-cold *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let check_app run refs app fp results =
  check run
    (List.assoc_opt app refs.expected = Some fp && table3_ok refs app results)
    app

let debloat_cold args =
  let run = new_run () in
  let tr = Tracer.create () in
  let refs = load_refs () in
  let rng = Random.State.make [| args.seed |] in
  let pass ~index:_ ~traced =
    let corpus = setup run Workloads.Suite.all_deployments in
    let order = shuffle rng corpus in
    let e2e = ref 0.0 in
    let body () =
      List.iter
        (fun (d : Platform.Deployment.t) ->
           let app = d.Platform.Deployment.name in
           clear_global_caches ();
           if traced then begin
             let optimized, results =
               Tracer.span tr "op" (fun () ->
                   traced_pipeline tr ~cache:Trim.Oracle.Cache.global d)
             in
             e2e := !e2e +. tr.Tracer.last_root;
             let h, m, _ = cache_counts Trim.Oracle.Cache.global in
             bump run "oracle.hits" (float_of_int h);
             bump run "oracle.misses" (float_of_int m);
             bump run "parse.hits"
               (float_of_int (Minipy.Parse_cache.hits Minipy.Parse_cache.global));
             bump run "parse.misses"
               (float_of_int
                  (Minipy.Parse_cache.misses Minipy.Parse_cache.global));
             check_app run refs app (fingerprint optimized results) results
           end
           else begin
             let t0 = now () in
             let r = Trim.Pipeline.run ~jobs:1 d in
             let dt = now () -. t0 in
             e2e := !e2e +. dt;
             run.samples <- dt :: run.samples;
             let results = r.Trim.Pipeline.module_results in
             check_app run refs app
               (fingerprint r.Trim.Pipeline.optimized results) results
           end)
        order
    in
    if traced then begin
      gc_delta run body;
      run.traced_passes <- !e2e :: run.traced_passes
    end
    else begin
      body ();
      run.timed <- run.timed +. !e2e;
      run.plain_passes <- !e2e :: run.plain_passes
    end
  in
  (* >= 100 app samples so app_ms_p90 has at least ten samples above it *)
  let min_passes = if args.small then 1 else 5 in
  loop ~seconds:args.seconds
    ~min_passes:(if args.trace then 2 * min_passes else min_passes)
    ~traced:args.trace pass;
  let corpus = Workloads.Suite.all_deployments () in
  if args.trace then begin
    probe_parse run corpus;
    probe_lambda_sim run corpus
  end;
  (run, tr, List.length corpus)

(* ------------------------------------------------- redebloat-warm *)

type warm_app = {
  name : string;
  original : Platform.Deployment.t;
  mutable current : Platform.Deployment.t;  (* edits so far this epoch *)
  files : string list;    (* file-backed ranked modules' files *)
  manifest : string;
}

(* Every [epoch] revisions the history restarts from a fresh set-up, so a
   revision's cost does not depend on how many revisions the host managed
   to run before it. *)
let epoch = 10

let redebloat_warm args =
  let run = new_run () in
  let tr = Tracer.create () in
  let refs = load_refs () in
  let state = Filename.concat out_dir (Printf.sprintf "state-%d" (Unix.getpid ())) in
  (* the deployment before its first commit: a cold priming pass writes the
     manifests and fills the memo store, which a warm run then reopens *)
  let prime () =
    rm_rf state;
    mkdir_p state;
    clear_global_caches ();
    let corpus = Workloads.Suite.all_deployments () in
    let store = Trim.Memo_store.open_ ~dir:state in
    let cache = Trim.Oracle.Cache.create () in
    Trim.Oracle.Cache.attach_store cache (Some store);
    let apps =
      List.map
        (fun (d : Platform.Deployment.t) ->
           let name = d.Platform.Deployment.name in
           let manifest = Filename.concat state (name ^ ".manifest") in
           let r =
             Trim.Pipeline.run ~jobs:1
               ~options:{ opts with
                          Trim.Pipeline.manifest_path = Some manifest;
                          oracle_cache = Some cache }
               d
           in
           let files =
             List.filter_map
               (fun (m : Trim.Debloater.module_result) ->
                  if m.Trim.Debloater.dm_file = "<none>" then None
                  else Some m.Trim.Debloater.dm_file)
               r.Trim.Pipeline.module_results
           in
           { name; original = d; current = d; files; manifest })
        corpus
    in
    Trim.Memo_store.close store;
    Trim.Memo_store.close (Trim.Memo_store.open_ ~dir:state);
    apps
  in
  let apps = ref [] in
  (* cold references for edited revisions, keyed by input image digest *)
  let cold_refs = Hashtbl.create 64 in
  let cold_reference (a : warm_app) =
    let key = Platform.Deployment.image_digest a.current in
    match Hashtbl.find_opt cold_refs key with
    | Some fp -> fp
    | None ->
      let r =
        Trim.Pipeline.run ~jobs:1
          ~options:{ opts with
                     Trim.Pipeline.oracle_cache = Some (Trim.Oracle.Cache.create ()) }
          a.current
      in
      let fp = fingerprint r.Trim.Pipeline.optimized r.Trim.Pipeline.module_results in
      Hashtbl.replace cold_refs key fp;
      fp
  in
  let rng = Random.State.make [| args.seed |] in
  let revision = ref 0 in
  let pass ~index:_ ~traced =
    if !revision mod epoch = 0 then apps := setup run prime;
    let apps = !apps in
    incr revision;
    (* the commit: one top-level assignment appended to one ranked module *)
    let edits = List.filter (fun a -> a.files <> []) apps in
    let a = List.nth edits (Random.State.int rng (List.length edits)) in
    let file = List.nth a.files (Random.State.int rng (List.length a.files)) in
    let d = Platform.Deployment.overlay a.current in
    let vfs = d.Platform.Deployment.vfs in
    Minipy.Vfs.add_file vfs file
      (Printf.sprintf "%s\n_perfbench_rev_%d = %d\n" (Minipy.Vfs.read_exn vfs file)
         !revision !revision);
    a.current <- d;
    Minipy.Parse_cache.clear Minipy.Parse_cache.global;
    let e2e = ref 0.0 in
    let outputs = ref [] in
    let body () =
      if traced then begin
        let store, cache =
          Tracer.span tr "op" (fun () ->
              let store =
                Tracer.span tr "memo_store.open" (fun () ->
                    Trim.Memo_store.open_ ~dir:state)
              in
              let cache = Trim.Oracle.Cache.create () in
              Trim.Oracle.Cache.attach_store cache (Some store);
              List.iter
                (fun a ->
                   let baseline =
                     Tracer.span tr "manifest.load" (fun () ->
                         Trim.Manifest.load ~path:a.manifest)
                   in
                   let optimized, results =
                     traced_pipeline tr ~cache ?baseline ~manifest_path:a.manifest
                       a.current
                   in
                   outputs :=
                     (a, baseline <> None, fingerprint optimized results)
                     :: !outputs)
                apps;
              Trim.Memo_store.close store;
              (store, cache))
        in
        e2e := tr.Tracer.last_root;
        let h, m, s = cache_counts cache in
        bump run "oracle.hits" (float_of_int h);
        bump run "oracle.misses" (float_of_int m);
        bump run "oracle.store_hits" (float_of_int s);
        bump run "memo_store.loaded" (float_of_int (Trim.Memo_store.loaded store));
        bump run "memo_store.appended"
          (float_of_int (Trim.Memo_store.appended store))
      end
      else begin
        let t0 = now () in
        let store = Trim.Memo_store.open_ ~dir:state in
        let cache = Trim.Oracle.Cache.create () in
        Trim.Oracle.Cache.attach_store cache (Some store);
        List.iter
          (fun a ->
             let t1 = now () in
             let baseline = Trim.Manifest.load ~path:a.manifest in
             let r =
               Trim.Pipeline.run ~jobs:1
                 ~options:{ opts with
                            Trim.Pipeline.baseline;
                            manifest_path = Some a.manifest;
                            oracle_cache = Some cache }
                 a.current
             in
             run.samples <- (now () -. t1) :: run.samples;
             outputs :=
               (a, baseline <> None,
                fingerprint r.Trim.Pipeline.optimized
                  r.Trim.Pipeline.module_results)
               :: !outputs)
          apps;
        Trim.Memo_store.close store;
        e2e := now () -. t0
      end
    in
    if traced then begin
      gc_delta run body;
      bump run "parse.hits"
        (float_of_int (Minipy.Parse_cache.hits Minipy.Parse_cache.global));
      bump run "parse.misses"
        (float_of_int (Minipy.Parse_cache.misses Minipy.Parse_cache.global));
      run.traced_passes <- !e2e :: run.traced_passes
    end
    else begin
      body ();
      run.timed <- run.timed +. !e2e;
      run.plain_passes <- !e2e :: run.plain_passes
    end;
    (* outside the timed section: each warm result equals a cold run of the
       same revision — the committed expectation for unedited apps, a fresh
       cold Pipeline.run for edited ones *)
    List.iter
      (fun (a, had_baseline, fp) ->
         let reference =
           if a.current == a.original then List.assoc_opt a.name refs.expected
           else Some (cold_reference a)
         in
         check run (had_baseline && reference = Some fp) a.name)
      !outputs
  in
  let min_passes = if args.small then 1 else 5 in
  loop ~seconds:args.seconds
    ~min_passes:(if args.trace then 2 * min_passes else min_passes)
    ~traced:args.trace pass;
  if args.trace then begin
    let corpus = List.map (fun a -> a.original) !apps in
    probe_parse run corpus;
    probe_lambda_sim run corpus
  end;
  rm_rf state;
  (run, tr, List.length !apps)

(* --------------------------------------------------- trace-replay *)

let replay_csv_rows (groups : Fleet.Sharded.group list) =
  List.map
    (fun (g : Fleet.Sharded.group) ->
       let policy, variant =
         Experiments.Trace_replay.split_label g.Fleet.Sharded.g_label
       in
       Printf.sprintf "%s,%s,%d,%s" policy variant g.Fleet.Sharded.g_apps
         (Fleet.Report.csv_row g.Fleet.Sharded.g_summary))
    groups

(* Experiments.Trace_replay.apps with the spec seed as a parameter and each
   app's trace thunk handed to [wrap]. *)
let replay_apps ~seed ~horizon_s ~ratios:(init_ratio, mem_ratio) ~wrap specs =
  List.map
    (fun (s : Platform.Azure_trace.fn_spec) ->
       let original =
         { Fleet.Router.exec_s = s.Platform.Azure_trace.fs_exec_ms /. 1000.0;
           func_init_s = s.Platform.Azure_trace.fs_cold_init_ms /. 1000.0;
           instance_init_s = s.Platform.Azure_trace.fs_instance_init_ms /. 1000.0;
           memory_mb = s.Platform.Azure_trace.fs_memory_mb }
       in
       let trimmed =
         { original with
           Fleet.Router.func_init_s = original.Fleet.Router.func_init_s *. init_ratio;
           memory_mb = original.Fleet.Router.memory_mb *. mem_ratio }
       in
       let fn_id = s.Platform.Azure_trace.fs_id in
       { Fleet.Sharded.app_id = fn_id;
         app_trace =
           wrap (fun () -> Platform.Azure_trace.trace_of_spec ~horizon_s s);
         app_variants =
           List.concat_map
             (fun (pname, pol) ->
                [ { Fleet.Sharded.v_group = pname ^ "/original";
                    v_cfg = Fleet.Router.default_config ~profile:original pol };
                  { Fleet.Sharded.v_group = pname ^ "/trimmed";
                    v_cfg =
                      { (Fleet.Router.default_config ~profile:trimmed pol) with
                        Fleet.Router.fallback =
                          Some
                            (Fleet.Scenario.fallback
                               ~rate:Experiments.Trace_replay.fallback_rate
                               ~seed:(seed + 1 + fn_id) ~original ()) } } ])
             Experiments.Trace_replay.policies })
    specs

let trace_replay args =
  let run = new_run () in
  let tr = Tracer.create () in
  let n_functions, horizon_s =
    if args.small then (100, 1800.0)
    else
      (Experiments.Trace_replay.default_n_functions,
       Experiments.Trace_replay.default_horizon_s)
  in
  (* the committed CSV is the seed-2025 full-size replay *)
  let committed =
    if args.seed = Experiments.Trace_replay.seed && not args.small then
      read_file (Filename.concat "results" (Filename.concat "csv" "trace_replay.csv"))
      |> String.split_on_char '\n' |> List.tl
      |> List.filter (fun l -> l <> "")
      |> Option.some
    else None
  in
  (* Each replay draws a fresh 1600-function population, so one run's
     percentiles do not hinge on a single population's tail; the first is
     the workload seed's own. A traced run replays each population twice,
     untraced then traced. *)
  let pass ~index ~traced =
    let population = if args.trace then index / 2 else index in
    let seed = args.seed + (100_003 * population) in
    let specs, ratios =
      setup run (fun () ->
          let specs =
            Platform.Azure_trace.specs ~n_functions ~horizon_s ~seed ()
          in
          Experiments.Common.reset_cache ();
          clear_global_caches ();
          (specs, Experiments.Trace_replay.ratios ()))
    in
    let arrivals = ref 0 in
    let stamps = ref [] in
    let wrap thunk () =
      if traced then
        Tracer.span tr "azure_trace.gen" (fun () ->
            let t = thunk () in
            arrivals := !arrivals + Platform.Trace.length t;
            t)
      else begin
        stamps := now () :: !stamps;
        let t = thunk () in
        arrivals := !arrivals + Platform.Trace.length t;
        t
      end
    in
    let body () =
      let apps = replay_apps ~seed ~horizon_s ~ratios ~wrap specs in
      if traced then
        Tracer.span tr "fleet.route" (fun () -> Fleet.Sharded.run ~shards:1 apps)
      else Fleet.Sharded.run ~shards:1 apps
    in
    let groups =
      if traced then begin
        let groups = gc_delta run (fun () -> Tracer.span tr "op" body) in
        run.traced_passes <- tr.Tracer.last_root :: run.traced_passes;
        groups
      end
      else begin
        let t0 = now () in
        let groups = body () in
        let t1 = now () in
        run.timed <- run.timed +. (t1 -. t0);
        run.plain_passes <- (t1 -. t0) :: run.plain_passes;
        (* per-app wall time: from one app's trace thunk to the next's *)
        ignore
          (List.fold_left
             (fun next t -> run.samples <- (next -. t) :: run.samples; t)
             t1 !stamps);
        groups
      end
    in
    let attempts, requests, cold =
      List.fold_left
        (fun (a, r, c) (g : Fleet.Sharded.group) ->
           let s = g.Fleet.Sharded.g_summary in
           (a + s.Fleet.Report.attempts, r + g.Fleet.Sharded.g_requests,
            c + s.Fleet.Report.cold))
        (0, 0, 0) groups
    in
    if traced then begin
      bump run "azure_trace.arrivals" (float_of_int !arrivals);
      bump run "fleet.requests" (float_of_int requests);
      bump run "fleet.cold_starts" (float_of_int cold)
    end;
    let ok =
      attempts = 4 * !arrivals
      && List.length groups = 4
      && match committed with
      | Some rows when population = 0 -> rows = replay_csv_rows groups
      | _ -> true
    in
    check run ok "replay"
  in
  loop ~seconds:args.seconds ~min_passes:(if args.trace then 2 else 1)
    ~traced:args.trace pass;
  (run, tr, n_functions)

(* ------------------------------------------------------------ output *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
       metrics)

let provenance args ~apps run =
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"small\": %b, \"nproc\": %d, \"ocaml\": %S, \"git_rev\": %S, \
     \"git_dirty\": %S, \"src_digest\": %S, \"jobs\": 1, \"shards\": 1, \
     \"apps_per_pass\": %d, \"untraced_passes\": %d, \"traced_passes\": %d, \
     \"samples\": %d, \"timed_s\": %s, \"attempted\": %d, \"failed\": %d, \
     \"error_rate\": %s}"
    args.workload args.seed (json_num args.seconds)
    (if args.trace then 1 else 0)
    args.small (Domain.recommended_domain_count ()) Sys.ocaml_version
    (env "PERFBENCH_GIT_REV") (env "PERFBENCH_GIT_DIRTY")
    (env "PERFBENCH_SRC_DIGEST") apps
    (List.length run.plain_passes) (List.length run.traced_passes)
    (List.length run.samples) (json_num run.timed) run.attempted run.failed
    (json_num (ratio run.failed run.attempted))

let end_to_end run ~apps =
  let ms = List.map (fun s -> s *. 1000.0) run.samples in
  let pass = median run.plain_passes in
  [ ("setup_s", "s", median run.setups);
    ("app_ms_p50", "ms", percentile 50.0 ms);
    ("app_ms_p90", "ms", percentile 90.0 ms);
    ("apps_per_s", "1/s", if pass > 0.0 then float_of_int apps /. pass else 0.0);
    ("peak_rss_mb", "MB", peak_rss_mb ()) ]

let per_layer run tr =
  let passes = float_of_int (max 1 (List.length run.traced_passes)) in
  let per_pass v = v /. passes in
  let rows = Tracer.self_times tr in
  let row l = per_pass (Option.value ~default:0.0 (Hashtbl.find_opt rows l)) in
  let queries = Tracer.durations tr "oracle.query" in
  let c = counter run in
  let hits = c "oracle.hits" and misses = c "oracle.misses" in
  let lookups = hits +. misses in
  let frac a b = if b > 0.0 then a /. b else 0.0 in
  let route = row "fleet.route" in
  [ ("oracle.query_s", "s", row "oracle.query");
    ("oracle.queries", "count", per_pass (float_of_int (List.length queries)));
    ("oracle.query_us_p50", "us", percentile 50.0 queries *. 1e6);
    ("oracle.query_us_p99", "us", percentile 99.0 queries *. 1e6);
    ("oracle.fresh_execs", "count", per_pass misses);
    ("oracle.memo_hit_ratio", "ratio", frac hits lookups);
    ("oracle.reference_s", "s", row "oracle.reference");
    ("dd.self_s", "s", row "dd");
    ("lambda_sim.cold_invoke_us", "us", c "lambda_sim.cold_invoke_us");
    ("lambda_sim.warm_invoke_us", "us", c "lambda_sim.warm_invoke_us");
    ("minipy.parse_mb_per_s", "MB/s", c "minipy.parse_mb_per_s");
    ("parse_cache.hit_ratio", "ratio",
     frac (c "parse.hits") (c "parse.hits" +. c "parse.misses"));
    ("static_analyzer.s", "s", row "static_analyzer");
    ("profiler.s", "s", row "profiler");
    ("debloater.digest_s", "s", row "debloater.digest");
    ("manifest.load_s", "s", row "manifest.load");
    ("memo_store.open_s", "s", row "memo_store.open");
    ("memo_store.loaded", "count", per_pass (c "memo_store.loaded"));
    ("memo_store.appended", "count", per_pass (c "memo_store.appended"));
    ("oracle.store_hit_ratio", "ratio", frac (c "oracle.store_hits") lookups);
    ("azure_trace.gen_s", "s", row "azure_trace.gen");
    ("azure_trace.arrivals", "count", per_pass (c "azure_trace.arrivals"));
    ("fleet.route_s", "s", route);
    ("fleet.ns_per_request", "ns",
     frac (route *. 1e9) (per_pass (c "fleet.requests")));
    ("fleet.cold_starts", "count", per_pass (c "fleet.cold_starts"));
    ("gc.minor_mb", "MB",
     per_pass (c "gc.minor_words") *. float_of_int (Sys.word_size / 8) /. 1e6);
    ("gc.major_collections", "count", per_pass (c "gc.major_collections"));
    ("unattributed_s", "s", row "unattributed");
    ("trace.overhead_frac", "ratio",
     frac (median run.traced_passes) (median run.plain_passes) -. 1.0) ]

let write_expected path =
  let b = Buffer.create 8192 in
  List.iter
    (fun (d : Platform.Deployment.t) ->
       clear_global_caches ();
       let r = Trim.Pipeline.run ~jobs:1 d in
       Buffer.add_string b
         (Printf.sprintf "%s\t%s\n" d.Platform.Deployment.name
            (fingerprint r.Trim.Pipeline.optimized r.Trim.Pipeline.module_results)))
    (Workloads.Suite.all_deployments ());
  write_file path (Buffer.contents b)

let () =
  let args = parse_args () in
  match args.write_expected with
  | Some path -> write_expected path
  | None ->
    let run, tr, apps =
      match args.workload with
      | "debloat-cold" -> debloat_cold args
      | "redebloat-warm" -> redebloat_warm args
      | _ -> trace_replay args
    in
    if args.trace then begin
      mkdir_p out_dir;
      Tracer.write tr
        ~path:(Filename.concat out_dir
                 (Printf.sprintf "spans-%s-seed%d.csv" args.workload args.seed))
    end;
    List.iter (fun f -> Printf.printf "check failed: %s\n" f) run.failures;
    Printf.printf "provenance: %s\n" (provenance args ~apps run);
    let metrics =
      if args.trace then per_layer run tr else end_to_end run ~apps
    in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      (run.failed = 0 && run.attempted > 0)
      run.attempted run.failed (json_metrics metrics)
