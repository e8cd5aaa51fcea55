(* Attribute-granularity view of a module (§6.1).

   A module's attributes are the names its top-level statements bind:
     import x            — binds x          (one attribute)
     import x as y       — binds y
     from m import a, b  — binds a and b    (one attribute PER NAME — finer
                                             than statement granularity)
     def f / class C     — binds f / C
     name = expr         — binds name

   Magic attributes (__name__, __all__, …) are excluded from DD (§6.3).
   Non-binding statements (expression statements, control flow) are left
   untouched — "all other code is untouched". *)

module String_set = Set.Make (String)

let is_magic name =
  String.length name > 4
  && String.sub name 0 2 = "__"
  && String.sub name (String.length name - 2) 2 = "__"

(* Names bound by one top-level statement, in source order. *)
let bound_names (s_ : Minipy.Ast.stmt) : string list =
  let open Minipy.Ast in
  match s_.sdesc with
  | Import (path, alias) ->
    [ (match alias with Some a -> a | None -> List.hd path) ]
  | From_import (_, names) ->
    List.map (fun (n, alias) -> Option.value alias ~default:n) names
  | Def { dname; _ } -> [ dname ]
  | Class { cname; _ } -> [ cname ]
  | Assign (Tname n, _) -> [ n ]
  | Assign (Ttuple ts, _) ->
    List.filter_map (function Tname n -> Some n | _ -> None) ts
  | Assign ((Tattr _ | Tsubscript _), _)
  | AugAssign _ | Expr_stmt _ | Return _ | If _ | While _ | For _ | Try _
  | Raise _ | Pass | Break | Continue | Global _ | Del _ | Assert _ -> []

(* The module's debloatable attributes: every non-magic bound name, first
   occurrence order, deduplicated. *)
let attrs_of_program (prog : Minipy.Ast.program) : string list =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun stmt ->
       List.filter_map
         (fun n ->
            if is_magic n || Hashtbl.mem seen n then None
            else begin
              Hashtbl.replace seen n ();
              Some n
            end)
         (bound_names stmt))
    prog

(* Rewrite the module so that only attributes in [keep] (plus magic names and
   non-binding statements) survive. From-import statements are filtered
   name-by-name; statements binding no kept name are dropped (Figure 7). *)
let restrict (prog : Minipy.Ast.program) ~keep : Minipy.Ast.program =
  let open Minipy.Ast in
  let keep_name n = is_magic n || String_set.mem n keep in
  List.filter_map
    (fun stmt ->
       match stmt.sdesc with
       | From_import (clause, names) ->
         let kept =
           List.filter
             (fun (n, alias) -> keep_name (Option.value alias ~default:n))
             names
         in
         if kept = [] then None
         else Some { stmt with sdesc = From_import (clause, kept) }
       | Import _ | Def _ | Class _ | Assign ((Tname _ | Ttuple _), _) ->
         let bound = bound_names stmt in
         if bound <> [] && not (List.exists keep_name bound) then None
         else Some stmt
       | Assign ((Tattr _ | Tsubscript _), _)
       | AugAssign _ | Expr_stmt _ | Return _ | If _ | While _ | For _
       | Try _ | Raise _ | Pass | Break | Continue | Global _ | Del _
       | Assert _ -> Some stmt)
    prog

(* A rewritten module's AST next to its printed text, with the AST being
   what parsing the text gives: printing round-trips (Pretty) except that
   the empty program prints as "pass", which parses back to [pass]. The
   debloater seeds the parse cache with this AST instead of having every
   candidate interpreter re-parse the text. *)
let printed (prog : Minipy.Ast.program) =
  match prog with
  | [] -> ([ Minipy.Ast.s Minipy.Ast.Pass ], Minipy.Pretty.program_to_string [])
  | _ -> (prog, Minipy.Pretty.program_to_string prog)

(* Parse a module file, restrict it, and print it back — the per-iteration
   rewrite step of §6.3 ("a single traversal of the AST"). DD rewrites the
   same source hundreds of times with different keep-sets; the parse cache
   answers every parse after the first. *)
let rewrite_source ~file source ~keep =
  printed (restrict (Minipy.Parse_cache.parse ~file source) ~keep)

(* --- statement granularity (§6.1 comparison) ------------------------------

   The coarser alternative λ-trim argues against: components are whole
   top-level binding statements, so `from m import a, b, c` lives or dies as
   one unit and unused names inside a kept statement can never be dropped. *)

(* Indices of the removable (binding, non-magic) top-level statements. *)
let statement_components (prog : Minipy.Ast.program) : int list =
  List.filteri
    (fun _ _ -> true)
    (List.mapi (fun i s_ -> (i, s_)) prog)
  |> List.filter_map
       (fun (i, s_) ->
          match bound_names s_ with
          | [] -> None
          | names -> if List.for_all is_magic names then None else Some i)

(* Keep only the statements whose index is in [keep] (plus every non-binding
   or magic statement). *)
let restrict_statements (prog : Minipy.Ast.program) ~keep : Minipy.Ast.program =
  List.filteri
    (fun i s_ ->
       match bound_names s_ with
       | [] -> true
       | names -> List.for_all is_magic names || List.mem i keep)
    prog

(* [rewrite_source] at statement granularity. *)
let rewrite_source_statements ~file source ~keep =
  printed (restrict_statements (Minipy.Parse_cache.parse ~file source) ~keep)
