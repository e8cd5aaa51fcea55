(* The engine name recorded in durable state. The tree-walker is the only
   engine; its name is still part of oracle memo keys, journal digests and
   manifests, so stores written by earlier builds keep hitting. *)

type choice = Treewalk

let to_string Treewalk = "treewalk"

let current () = Treewalk
