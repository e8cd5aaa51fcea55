(* The ltrim CLI fails closed: an unknown application name or an
   out-of-range value is a usage error (exit 2), an unparsable option value
   is a cmdliner parse error (exit 124), and an unwritable durable-state or
   output path is an I/O failure (exit 1) reported on one line. None of them
   is an uncaught exception (exit 125). *)

let ltrim = Filename.concat (Filename.concat ".." "bin") "ltrim.exe"

(* Run ltrim with [args]; the exit code and what it printed on stderr. *)
let run_ltrim args =
  let err = Filename.temp_file "ltrim-cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
       let cmd =
         Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote ltrim)
           (String.concat " " (List.map Filename.quote args))
           (Filename.quote err)
       in
       let code = Sys.command cmd in
       (code, In_channel.with_open_bin err In_channel.input_all))

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let unknown_app_cases =
  List.map
    (fun args ->
       let label = String.concat " " args in
       Alcotest.test_case (label ^ ": exit 2, known apps listed") `Quick
         (fun () ->
            let code, err = run_ltrim args in
            Alcotest.(check int) "usage-error exit code" 2 code;
            Alcotest.(check bool) ("names the app: " ^ err) true
              (contains ~sub:"unknown application \"nosuchapp\"" err);
            Alcotest.(check bool) "lists the known apps" true
              (List.for_all (fun a -> contains ~sub:a err)
                 Workloads.Suite.names)))
    [ [ "debloat"; "nosuchapp" ];
      [ "analyze"; "nosuchapp" ];
      [ "profile"; "nosuchapp" ];
      [ "invoke"; "nosuchapp" ];
      [ "fleet"; "nosuchapp" ];
      [ "redebloat"; "markdown"; "nosuchapp"; "--state"; "unused-state-dir" ] ]

let argument_cases =
  [ Alcotest.test_case "--scoring bogus: parse error, methods listed" `Quick
      (fun () ->
         let code, err = run_ltrim [ "debloat"; "markdown"; "-s"; "bogus" ] in
         Alcotest.(check int) "cmdliner parse-error exit code" 124 code;
         Alcotest.(check bool) ("names the method: " ^ err) true
           (contains ~sub:"unknown scoring method \"bogus\"" err));
    Alcotest.test_case "-k -3: exit 2" `Quick (fun () ->
        let code, err = run_ltrim [ "debloat"; "markdown"; "-k-3" ] in
        Alcotest.(check int) "usage-error exit code" 2 code;
        Alcotest.(check bool) ("says why: " ^ err) true
          (contains ~sub:"-k must be >= 0 (got -3)" err));
    Alcotest.test_case "-k 0 stays valid" `Quick (fun () ->
        let code, err = run_ltrim [ "debloat"; "markdown"; "-k"; "0" ] in
        Alcotest.(check int) ("exit 0: " ^ err) 0 code);
    (* one engine, so no engine option: the old flag is not silently
       accepted *)
    Alcotest.test_case "--backend is not an option" `Quick (fun () ->
        let code, err =
          run_ltrim [ "debloat"; "markdown"; "--backend"; "treewalk" ]
        in
        Alcotest.(check int) "cmdliner parse-error exit code" 124 code;
        Alcotest.(check bool) ("names the option: " ^ err) true
          (contains ~sub:"unknown option '--backend'" err)) ]
  (* fleet sizing flags: a negative value used to run and print nonsense;
     a NaN or infinite one ran, hung, or died on an uncaught exception *)
  @ List.map
      (fun (flag, expected) ->
         Alcotest.test_case ("fleet " ^ flag ^ ": exit 2") `Quick (fun () ->
             let code, err = run_ltrim [ "fleet"; "resnet"; flag ] in
             Alcotest.(check int) "usage-error exit code" 2 code;
             Alcotest.(check bool) ("says why: " ^ err) true
               (contains ~sub:expected err)))
      [ ("--keep-alive=-5", "--keep-alive must be non-negative (got -5)");
        ("--keep-alive=nan", "--keep-alive must be non-negative (got nan)");
        ("--max-pending=-1", "--max-pending must be non-negative (got -1)");
        ("--max-idle=-1", "--max-idle must be non-negative (got -1)");
        ("--capacity=-4", "--capacity must be non-negative (got -4)");
        ("--timeout=-5", "--timeout must be non-negative (got -5)");
        ("--timeout=nan", "--timeout must be non-negative (got nan)");
        ("--breaker-cooldown=nan",
         "--breaker-cooldown must be non-negative (got nan)");
        ("--rate=nan", "--rate must be positive and finite (got nan)");
        ("--rate=inf", "--rate must be positive and finite (got inf)");
        ("--duration=nan",
         "--duration must be non-negative and finite (got nan)");
        ("--duration=inf",
         "--duration must be non-negative and finite (got inf)");
        ("--request-timeout=nan",
         "--request-timeout must be positive (got nan)");
        ("--retry-cap=nan", "--retry-cap must be >= --retry-base (got nan)");
        ("--hedge-delay=nan", "--hedge-delay must be non-negative (got nan)") ]
  @ [ Alcotest.test_case "fleet --capacity 0 stays unbounded" `Quick (fun () ->
        let code, err =
          run_ltrim
            [ "fleet"; "markdown"; "--capacity"; "0"; "--duration"; "60" ]
        in
        Alcotest.(check int) ("exit 0: " ^ err) 0 code);
    Alcotest.test_case "fleet --request-timeout=inf stays valid" `Quick
      (fun () ->
        let code, err =
          run_ltrim
            [ "fleet"; "markdown"; "--request-timeout=inf"; "--duration"; "60" ]
        in
        Alcotest.(check int) ("exit 0: " ^ err) 0 code) ]

(* /proc rejects directory creation, so these paths are unwritable even
   when the suite runs as root. *)
let io_failure_case name args ~path =
  Alcotest.test_case (name ^ ": exit 1, one line naming the path") `Quick
    (fun () ->
       let code, err = run_ltrim args in
       Alcotest.(check int) ("I/O-failure exit code: " ^ err) 1 code;
       Alcotest.(check bool) ("names the path: " ^ err) true
         (contains ~sub:path err);
       Alcotest.(check int) "one line" 1
         (List.length
            (List.filter (fun l -> l <> "") (String.split_on_char '\n' err))))

let io_failure_cases =
  [ io_failure_case "--memo-dir"
      [ "debloat"; "markdown"; "--memo-dir"; "/proc/nope" ]
      ~path:"/proc/nope";
    io_failure_case "--journal"
      [ "debloat"; "markdown"; "--journal"; "/proc/nope" ]
      ~path:"/proc/nope";
    io_failure_case "--manifest"
      [ "debloat"; "markdown"; "--manifest"; "/proc/nope/x" ]
      ~path:"/proc/nope";
    io_failure_case "--trace"
      [ "invoke"; "markdown"; "--trace"; "/proc/nope/x" ]
      ~path:"/proc/nope/x" ]

let suite =
  [ ("cli.unknown_app", unknown_app_cases);
    ("cli.arguments", argument_cases);
    ("cli.io_failure", io_failure_cases) ]
