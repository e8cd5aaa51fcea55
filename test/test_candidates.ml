(* DD candidate construction without a re-parse, and the per-layer Vfs
   summary memo.

   - The debloater writes each candidate's printed text into the image and
     hands the restricted AST it already holds to the parse cache, under the
     key the candidate's interpreters will look up. That is exact only if
     the AST equals a parse of the text (locations aside) and the key is the
     one [Parse_cache.parse_vfs] computes; both are checked on random
     programs, and a differential run pins whole searches with the parse
     cache on and off.
   - [paths]/[file_count]/[image_bytes]/[image_digest] are memoized per
     layer and derived from the parent's memo for rewrite-only overlays; on
     random mutation sequences over overlay chains they must equal the
     flattened copy's (and a from-scratch model's) after every step, also
     when two domains digest one frozen base at once. *)

open Minipy
module Gen = QCheck2.Gen

let file = "site-packages/m/__init__.py"

(* One vfs holding [source] at [file], wrapped as a handler-less deployment:
   [Debloater.with_restricted] only overlays the image. *)
let deployment_of_source source =
  let vfs = Vfs.create () in
  Vfs.add_file vfs file source;
  Platform.Deployment.make ~name:"gen" ~vfs ~handler_file:file
    ~handler_name:"handler" ~test_cases:[]

(* A keep-set drawn from the program's own attributes by a bit mask (random
   names would almost never match one). *)
let keep_of_mask prog mask =
  List.filteri (fun i _ -> mask land (1 lsl (i mod 30)) <> 0)
    (Trim.Attrs.attrs_of_program prog)

let reparses_equal (prog, text) =
  match Parser.parse ~file text with
  | reparsed -> Ast.program_equal prog reparsed
  | exception _ -> false

let handoff_equals_parse =
  QCheck2.Test.make ~count:300
    ~name:"rewritten AST equals the parse of its printed text"
    ~print:(fun (p, _, _) -> Pretty.program_to_string p)
    (Gen.triple Test_properties.gen_program Gen.nat (Gen.list Gen.small_nat))
    (fun (prog, mask, stmt_keep) ->
       QCheck2.assume (Test_properties.program_ok prog);
       let source = Pretty.program_to_string prog in
       let keep = Trim.Attrs.String_set.of_list (keep_of_mask prog mask) in
       reparses_equal (Trim.Attrs.rewrite_source ~file source ~keep)
       && reparses_equal
         (Trim.Attrs.rewrite_source_statements ~file source ~keep:stmt_keep))

(* The entry [with_restricted] seeds is the one the candidate's import
   finds: a [parse_vfs] of the rewritten file right after is a hit, never a
   miss, and serves the restricted program. *)
let seeded_key_matches =
  QCheck2.Test.make ~count:200
    ~name:"with_restricted seeds the key parse_vfs looks up"
    ~print:(fun (p, _) -> Pretty.program_to_string p)
    (Gen.pair Test_properties.gen_program Gen.nat)
    (fun (prog, mask) ->
       QCheck2.assume (Test_properties.program_ok prog);
       let source = Pretty.program_to_string prog in
       let keep = keep_of_mask prog mask in
       let cand =
         Trim.Debloater.with_restricted (deployment_of_source source) ~file ~keep
       in
       let vfs = cand.Platform.Deployment.vfs in
       let rewritten, _ =
         Trim.Attrs.rewrite_source ~file source
           ~keep:(Trim.Attrs.String_set.of_list keep)
       in
       let pc = Parse_cache.global in
       let h0 = Parse_cache.hits pc and m0 = Parse_cache.misses pc in
       let served = Parse_cache.parse_vfs vfs file in
       Parse_cache.hits pc = h0 + 1
       && Parse_cache.misses pc = m0
       && Ast.program_equal served rewritten
       && Ast.program_equal served (Parser.parse ~file (Vfs.read_exn vfs file)))

let seed_cases =
  [ Alcotest.test_case "seed_vfs: hit afterwards, counters untouched" `Quick
      (fun () ->
        let vfs = Vfs.create () in
        Vfs.add_file vfs "m.py" "x = 1\n";
        let prog = Parser.parse ~file:"m.py" "x = 1\n" in
        let c = Parse_cache.create () in
        Parse_cache.seed_vfs c vfs "m.py" prog;
        Alcotest.(check int) "seeding counts nothing" 0
          (Parse_cache.hits c + Parse_cache.misses c);
        Alcotest.(check bool) "the seeded AST is served" true
          (Parse_cache.parse_vfs ~cache:c vfs "m.py" == prog);
        Alcotest.(check int) "as a hit" 1 (Parse_cache.hits c);
        (* an existing entry wins over a later seed *)
        Parse_cache.seed_vfs c vfs "m.py" (Parser.parse ~file:"m.py" "x = 1\n");
        Alcotest.(check bool) "first entry kept" true
          (Parse_cache.parse_vfs ~cache:c vfs "m.py" == prog));
    Alcotest.test_case "seed_vfs: a disabled cache stores nothing" `Quick
      (fun () ->
        let vfs = Vfs.create () in
        Vfs.add_file vfs "m.py" "x = 1\n";
        let c = Parse_cache.create ~enabled:false () in
        Parse_cache.seed_vfs c vfs "m.py" (Parser.parse ~file:"m.py" "x = 1\n");
        Alcotest.(check int) "no entries" 0 (Parse_cache.size c)) ]

(* --- differential: parse cache on vs off --------------------------------- *)

(* Debloat the top-3 modules of [app] sequentially, recording every
   candidate's observation (executed fresh: a private disabled memo). *)
let observed_search app =
  let d = Workloads.Suite.deployment_of app in
  let plan =
    Trim.Pipeline.run
      ~options:{ Trim.Pipeline.default_options with k = 3 }
      ~jobs:1 d
  in
  let memo = Trim.Oracle.Cache.create ~enabled:false () in
  let expected = Trim.Oracle.observe ~cache:memo d in
  let log = ref [] in
  let oracle cand =
    let obs = Trim.Oracle.observe ~cache:memo cand in
    log := obs.Trim.Oracle.per_test :: !log;
    Trim.Oracle.equivalent obs expected
  in
  let pc = Parse_cache.global in
  let m0 = Parse_cache.misses pc in
  let d', removed =
    List.fold_left
      (fun (d, acc) module_name ->
         let protected =
           Trim.Static_analyzer.protected_attrs plan.Trim.Pipeline.analysis
             ~module_name
         in
         let d', r =
           Trim.Debloater.debloat_module ~oracle ~protected d ~module_name
         in
         (d', r.Trim.Debloater.removed_attrs :: acc))
      (d, []) plan.Trim.Pipeline.ranked
  in
  let sources =
    let vfs = d'.Platform.Deployment.vfs in
    List.map (fun p -> (p, Vfs.read_exn vfs p)) (Vfs.paths vfs)
  in
  ( List.rev removed,
    List.rev !log,
    sources,
    Parse_cache.misses pc - m0,
    Vfs.file_count d.Platform.Deployment.vfs,
    List.length d.Platform.Deployment.test_cases )

let differential_cases =
  List.map
    (fun app ->
       Alcotest.test_case (app ^ ": same search with the parse cache off")
         `Slow (fun () ->
             let pc = Parse_cache.global in
             Parse_cache.clear pc;
             let removed, log, sources, misses, files, tests =
               observed_search app
             in
             Parse_cache.set_enabled pc false;
             let removed', log', sources', _, _, _ =
               Fun.protect
                 ~finally:(fun () -> Parse_cache.set_enabled pc true)
                 (fun () -> observed_search app)
             in
             Alcotest.(check (list (list string))) "keep-sets" removed' removed;
             Alcotest.(check (list (list (pair string string))))
               "every candidate observation" log' log;
             Alcotest.(check (list (pair string string))) "debloated sources"
               sources' sources;
             Alcotest.(check bool) "the search queried candidates" true
               (List.length log > 10);
             (* no candidate was re-parsed: misses cover at most the
                original files and the test-case event expressions *)
             Alcotest.(check bool)
               (Printf.sprintf "%d parse misses <= %d files + %d events"
                  misses files (2 * tests))
               true
               (misses <= files + (2 * tests))))
    [ "markdown"; "lxml" ]

(* --- Vfs summary memo ------------------------------------------------------ *)

let pool_paths =
  [| "handler.py"; "a.py"; "lib/__init__.py"; "lib/x.py"; "lib/y/__init__.py" |]

let pool_phantoms = [| "lib/w.bin"; "m.so" |]

type op =
  | Add of int * int      (* path index, content length *)
  | Remove of int
  | Phantom of int * int  (* phantom index, bytes *)

let pp_op = function
  | Add (p, n) -> Printf.sprintf "add %s (%d)" pool_paths.(p) n
  | Remove p -> Printf.sprintf "rm %s" pool_paths.(p)
  | Phantom (p, n) -> Printf.sprintf "phantom %s %d" pool_phantoms.(p) n

let gen_op =
  let path = Gen.int_range 0 (Array.length pool_paths - 1) in
  Gen.frequency
    [ (5, Gen.map2 (fun p n -> Add (p, n)) path (Gen.int_range 0 40));
      (2, Gen.map (fun p -> Remove p) path);
      (1, Gen.map2 (fun p n -> Phantom (p, n))
            (Gen.int_range 0 (Array.length pool_phantoms - 1))
            (Gen.int_range 0 5000)) ]

let content_of p n = String.init n (fun i -> Char.chr (97 + ((p + i) mod 26)))

(* A flat model of the effective image, maintained alongside the layers. *)
type model = {
  m_files : (string, string) Hashtbl.t;
  m_phantoms : (string, int) Hashtbl.t;
}

let apply vfs model = function
  | Add (p, n) ->
    let c = content_of p n in
    Vfs.add_file vfs pool_paths.(p) c;
    Hashtbl.replace model.m_files pool_paths.(p) c
  | Remove p ->
    Vfs.remove_file vfs pool_paths.(p);
    Hashtbl.remove model.m_files pool_paths.(p)
  | Phantom (p, n) ->
    Vfs.add_phantom vfs pool_phantoms.(p) ~bytes:n;
    Hashtbl.replace model.m_phantoms pool_phantoms.(p) n

let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* The image digest's documented preimage, rebuilt from the model: the
   memo must keep every digest bit-identical to the pre-memo format, which
   manifests and persistent memos embed. *)
let model_digest model =
  let b = Buffer.create 256 in
  List.iter
    (fun (p, c) ->
       Buffer.add_string b p;
       Buffer.add_char b '\x00';
       Buffer.add_string b (Digest.to_hex (Digest.string c));
       Buffer.add_char b '\x01')
    (sorted model.m_files);
  List.iter
    (fun (p, n) ->
       Buffer.add_char b '\x02';
       Buffer.add_string b p;
       Buffer.add_string b (string_of_int n))
    (sorted model.m_phantoms);
  Digest.to_hex (Digest.string (Buffer.contents b))

let model_bytes model =
  List.fold_left (fun acc (_, c) -> acc + String.length c + 512) 0
    (sorted model.m_files)
  + List.fold_left (fun acc (_, n) -> acc + n) 0 (sorted model.m_phantoms)

let agrees vfs model =
  let flat = Vfs.copy vfs in
  Vfs.image_bytes vfs = Vfs.image_bytes flat
  && Vfs.image_digest vfs = Vfs.image_digest flat
  && Vfs.paths vfs = Vfs.paths flat
  && Vfs.file_count vfs = Vfs.file_count flat
  && Vfs.paths vfs = List.map fst (sorted model.m_files)
  && Vfs.image_bytes vfs = model_bytes model
  && Vfs.image_digest vfs = model_digest model

let copy_model m =
  { m_files = Hashtbl.copy m.m_files; m_phantoms = Hashtbl.copy m.m_phantoms }

(* Ops for the root, then for each of 0-3 overlays stacked on it. Every
   layer is mutated only before the next overlay is taken (the documented
   invariant); after every step the top layer and every frozen layer below
   it must still agree with their flattened copies and models. *)
let summary_memo_prop =
  QCheck2.Test.make ~count:300
    ~name:"memoized image views equal the flattened copy's after every step"
    ~print:(fun layers ->
        String.concat " | "
          (List.map (fun ops -> String.concat "; " (List.map pp_op ops)) layers))
    Gen.(list_size (int_range 1 4) (list_size (int_range 0 6) gen_op))
    (fun layers ->
       let root = Vfs.create () in
       let model = { m_files = Hashtbl.create 8; m_phantoms = Hashtbl.create 2 } in
       let rec go frozen vfs model = function
         | [] -> true
         | ops :: rest ->
           List.for_all
             (fun op ->
                apply vfs model op;
                agrees vfs model
                && List.for_all (fun (v, m) -> agrees v m) frozen)
             ops
           && agrees vfs model
           &&
           (match rest with
            | [] -> true
            | _ ->
              go ((vfs, copy_model model) :: frozen) (Vfs.overlay vfs)
                (copy_model model) rest)
       in
       go [] root model layers)

(* Two domains digest the same frozen base (and their own rewrite-only
   overlays of it) at once, each layer's memo cold: both must see the
   sequential values. *)
let parallel_digest_case =
  Alcotest.test_case "two domains digest one frozen base" `Quick (fun () ->
      let build () =
        let vfs = Vfs.create () in
        for i = 0 to 199 do
          Vfs.add_file vfs (Printf.sprintf "lib/m%03d.py" i)
            (Printf.sprintf "x = %d\n" i)
        done;
        Vfs.add_phantom vfs "lib/w.bin" ~bytes:4096;
        let mid = Vfs.overlay vfs in
        Vfs.add_file mid "lib/m007.py" "x = 'seven'\n";
        mid
      in
      let views v = (Vfs.image_digest v, Vfs.image_bytes v, Vfs.paths v) in
      let candidate base i =
        let o = Vfs.overlay base in
        Vfs.add_file o (Printf.sprintf "lib/m%03d.py" i) "y = 1\n";
        o
      in
      let expect_base = views (Vfs.copy (build ())) in
      let expect_cand i = views (Vfs.copy (candidate (build ()) i)) in
      for _round = 1 to 10 do
        let base = build () in
        let work i () =
          let c = candidate base i in
          (views base, views c)
        in
        let d1 = Domain.spawn (work 3) and d2 = Domain.spawn (work 150) in
        let b1, c1 = Domain.join d1 and b2, c2 = Domain.join d2 in
        Alcotest.(check bool) "base views agree" true
          (b1 = expect_base && b2 = expect_base && views base = expect_base);
        Alcotest.(check bool) "candidate views agree" true
          (c1 = expect_cand 3 && c2 = expect_cand 150)
      done)

let suite =
  [ ( "candidates.parse_handoff",
      seed_cases
      @ List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ handoff_equals_parse; seeded_key_matches ] );
    ("candidates.differential", differential_cases);
    ( "candidates.vfs_memo",
      parallel_digest_case
      :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ summary_memo_prop ] ) ]
