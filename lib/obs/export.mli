(** Exporters for recorded spans and metrics.

    Deterministic by construction: identical runs export identical bytes
    (fixed float precision, name-sorted metrics, begin-ordered events) —
    the golden trace test depends on it. *)

(** Chrome trace-event JSON, loadable in [chrome://tracing] or Perfetto.
    Spans become ["X"] (complete) events, instants ["i"] events; clock
    domains map to pids (with [process_name] metadata), tracks to tids.
    [?metrics] embeds a registry snapshot under [otherData.metrics]. *)
val chrome_json : ?metrics:Metrics.registry -> Span.sink -> string

(** Per (clock, cat, name) span aggregate:
    [clock,cat,name,count,total_ms,mean_ms,max_ms]. *)
val summary_csv : Span.sink -> string

(** Registry snapshot: [name,kind,count_or_value,sum,min,max]. *)
val metrics_csv : Metrics.registry -> string

(** Atomic write-temp-then-rename of [contents] to [path].
    @raise Sys_error naming [path] when it cannot be written. *)
val to_file : path:string -> string -> unit
