(* The ltrim CLI fails closed on bad arguments: an unknown application name
   is a usage error (exit 2) naming the known apps on every subcommand that
   takes one, never an uncaught exception (exit 125). *)

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

let suite = [ ("cli.unknown_app", unknown_app_cases) ]
