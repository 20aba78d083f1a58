(** Exporters: render the span store and metrics registry into standard
    observability formats. The renderers are pure over current contents —
    callers decide where the bytes go; {!write_files} puts them in an
    artifact directory. *)

val chrome_trace : Span.t -> string
(** Chrome [trace_event] JSON ({"traceEvents": [...]}) loadable in
    chrome://tracing and Perfetto. One track per distinct span name;
    complete ("X") events with microsecond timestamps; packet id, byte
    count, notes and drop/fault marks in [args]. *)

val jsonl : Span.t -> string
(** One JSON object per span per line, in record order. *)

val text : Span.t -> string
(** Human-readable listing with a retained/evicted footer, so truncated
    span stores are never silently read as complete. *)

val prometheus : Registry.t -> string
(** Prometheus text exposition. Metric names are sanitized and prefixed
    with [netdebug_]; HELP text has backslashes and newlines escaped per
    the exposition format; histograms export as summaries
    (p50/p90/p99/p99.9 with quantile labels derived from the values, plus
    [_sum]/[_count]/[_min]/[_max]). *)

val json_escape : string -> string

val mkdir_p : string -> (unit, string) result
(** Create a directory and any missing parents, like [mkdir -p]; an
    existing directory is fine. [Error] says why it cannot be made, e.g.
    a path component that is a regular file. *)

val write_files : dir:string -> (string * string) list -> string list
(** [write_files ~dir [(name, contents); ...]] writes each file into
    [dir], created with {!mkdir_p} first, and returns the paths written.
    @raise Sys_error when [dir] cannot be created or a file written. *)
