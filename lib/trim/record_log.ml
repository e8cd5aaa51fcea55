(* Append-only log of sealed, sequence-numbered records. The format and the
   crash model are documented in record_log.mli. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
  else if not (Sys.is_directory dir) then
    invalid_arg
      (Printf.sprintf "Record_log.mkdir_p: %s exists and is not a directory" dir)

(* A temp file in the same directory plus [Sys.rename], atomic on POSIX. *)
let write_file_atomic ~path contents =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = Filename.temp_file ~temp_dir:dir ".ltrim" ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let check_field what s =
  if String.exists (fun c -> c = '|' || c = '\n' || c = '\r') s then
    invalid_arg (what ^ " must not contain '|' or newlines")

let counters_lock = Mutex.create ()

let count ?by c =
  Mutex.lock counters_lock;
  Obs.Metrics.incr ?by c;
  Mutex.unlock counters_lock

(* --- the seal ------------------------------------------------------------- *)

let seal payload = payload ^ "|" ^ Digest.to_hex (Digest.string payload)

(* [s.[p, p + 32)] is the lower-case hex of digest [d], as [Digest.to_hex]
   writes it. *)
let hex_matches d s p =
  let hex = "0123456789abcdef" in
  let rec go k =
    k = 16
    || (let b = Char.code d.[k] in
        s.[p + (2 * k)] = hex.[b lsr 4]
        && s.[p + (2 * k) + 1] = hex.[b land 15]
        && go (k + 1))
  in
  go 0

(* Length of the payload of a sealed [line], or -1 when the seal does not
   match: one [Digest.substring] and a hex compare. *)
let payload_length line =
  match String.rindex_opt line '|' with
  | Some p
    when String.length line - p - 1 = 32
         && hex_matches (Digest.substring line 0 p) line (p + 1) -> p
  | _ -> -1

let unseal line =
  match payload_length line with
  | -1 -> None
  | p -> Some (String.sub line 0 p)

(* Start of the body when [line.[0, stop)] opens with "<kind>|<seq>|",
   [seq] in decimal, else -1. *)
let body_start line ~seq ~stop =
  let rec digits i n =
    if i >= stop then -1
    else
      match line.[i] with
      | '0' .. '9' as c -> digits (i + 1) ((10 * n) + Char.code c - 48)
      | '|' when i > 2 && n = seq -> i + 1
      | _ -> -1
  in
  if stop >= 2 && line.[1] = '|' then digits 2 0 else -1

(* --- the log -------------------------------------------------------------- *)

type t = {
  mutable oc : out_channel option;
  mutable next_seq : int;
  loaded : int;
  truncated : int;
  lock : Mutex.t;
}

(* The valid prefix of [ic] as (records, bytes, lines dropped after it), or
   [None] unless the first line is [header], '\n'-terminated. Streams one
   line at a time. *)
let valid_prefix ic ~header decode =
  let size = Int64.to_int (In_channel.length ic) in
  let rec rest n =
    match In_channel.input_line ic with None -> n | Some _ -> rest (n + 1)
  in
  let rec records seq at =
    match In_channel.input_line ic with
    | None -> (seq, at, 0)
    | Some line ->
      let stop = payload_length line in
      let pos = if stop < 0 then -1 else body_start line ~seq ~stop in
      if at + String.length line < size && pos >= 0
         && decode line.[0] line ~pos ~len:(stop - pos)
      then records (seq + 1) (at + String.length line + 1)
      else (seq, at, rest 1)
  in
  match In_channel.input_line ic with
  | Some h when String.equal h header && String.length h < size ->
    Some (records 0 (String.length h + 1))
  | _ -> None

let open_ ?(replay = true) ~path ~magic ?payload decode =
  let header = match payload with None -> magic | Some p -> magic ^ "|" ^ p in
  let prefix =
    if not (replay && Sys.file_exists path) then None
    else
      In_channel.with_open_bin path (fun ic ->
          Option.map
            (fun (records, kept, dropped) ->
               if dropped > 0 then begin
                 In_channel.seek ic 0L;
                 write_file_atomic ~path (really_input_string ic kept)
               end;
               (records, dropped))
            (valid_prefix ic ~header decode))
  in
  let oc, loaded, truncated =
    match prefix with
    | Some (records, dropped) ->
      (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path,
       records, dropped)
    | None ->
      (* written in place: a crash tears at most the header, which the next
         open reads as foreign *)
      mkdir_p (Filename.dirname path);
      let oc =
        open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
          0o644 path
      in
      output_string oc (header ^ "\n");
      flush oc;
      (oc, 0, 0)
  in
  { oc = Some oc; next_seq = loaded; loaded; truncated; lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let append t kind body =
  match t.oc with
  | None -> invalid_arg "Record_log: already closed"
  | Some oc ->
    output_string oc (seal (Printf.sprintf "%c|%d|%s" kind t.next_seq body));
    output_char oc '\n';
    flush oc;
    t.next_seq <- t.next_seq + 1

let records t = locked t (fun () -> t.next_seq)

let loaded t = t.loaded

let truncated t = t.truncated

let close t =
  locked t (fun () ->
      Option.iter close_out t.oc;
      t.oc <- None)
