(** The engine name recorded in durable state. The tree-walking evaluator
    ({!Interp}) is the only engine; its name ["treewalk"] is a component of
    oracle memo keys, journal digests and manifests, and must not change. *)

type choice = Treewalk

val to_string : choice -> string

(** Always {!Treewalk}. *)
val current : unit -> choice
