(** Attribute-granularity view of a module (§6.1).

    A module's attributes are the names its top-level statements bind:
    imports, [from … import] names (one attribute {e per name} — finer than
    statement granularity), defs, classes, and assignments. Magic names
    ([__name__], …) are excluded from debloating; non-binding statements are
    left untouched. *)

module String_set : Set.S with type elt = string

(** [is_magic "__name__"] — dunder names excluded from DD (§6.3). *)
val is_magic : string -> bool

(** Names bound by one top-level statement, in source order. Empty for
    non-binding statements. *)
val bound_names : Minipy.Ast.stmt -> string list

(** The module's debloatable attributes: every non-magic bound name, first
    occurrence order, deduplicated. *)
val attrs_of_program : Minipy.Ast.program -> string list

(** Rewrite the module so only attributes in [keep] (plus magic names and
    non-binding statements) survive. From-import lists are filtered name by
    name; statements binding no kept name are dropped (Figure 7). Tuple
    assignments are kept whole if any bound name is kept. *)
val restrict : Minipy.Ast.program -> keep:String_set.t -> Minipy.Ast.program

(** Parse, restrict, and print back a module file — the per-iteration rewrite
    of §6.3. Returns the restricted AST and its printed text; the AST equals
    [Parser.parse] of the text up to locations (printing round-trips, and a
    module left empty comes back as [pass], as its text parses). *)
val rewrite_source :
  file:string -> string -> keep:String_set.t -> Minipy.Ast.program * string

(** {1 Statement granularity (the §6.1 ablation)} *)

(** Indices of the removable (binding, non-magic) top-level statements. *)
val statement_components : Minipy.Ast.program -> int list

(** Keep only statements whose index is in [keep], plus every non-binding or
    magic-only statement. *)
val restrict_statements :
  Minipy.Ast.program -> keep:int list -> Minipy.Ast.program

(** {!rewrite_source} at statement granularity: {!restrict_statements}, then
    print. *)
val rewrite_source_statements :
  file:string -> string -> keep:int list -> Minipy.Ast.program * string
