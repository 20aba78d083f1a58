(* Exporters over the span store and the metrics registry:
   - Chrome trace_event JSON (chrome://tracing, Perfetto)
   - JSONL span dumps (one object per line)
   - plain text span listing
   - Prometheus text exposition of the registry *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ---------------- Chrome trace_event ---------------- *)

(* One track (tid) per distinct span name, in order of first appearance;
   "X" complete events with microsecond timestamps. *)
let chrome_trace store =
  let spans = Span.spans store in
  let tids = Hashtbl.create 16 in
  let track_names = ref [] in
  let tid_of name =
    match Hashtbl.find_opt tids name with
    | Some tid -> tid
    | None ->
        let tid = Hashtbl.length tids in
        Hashtbl.add tids name tid;
        track_names := (tid, name) :: !track_names;
        tid
  in
  List.iter (fun sp -> ignore (tid_of sp.Span.sp_name)) spans;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  Buffer.add_string b " {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"netdebug device\"}}";
  List.iter
    (fun (tid, name) ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           tid (json_escape name)))
    (List.rev !track_names);
  List.iter
    (fun sp ->
      let args = Buffer.create 64 in
      Buffer.add_string args (Printf.sprintf "\"packet\":%d" sp.Span.sp_packet);
      if sp.Span.sp_bytes > 0 then
        Buffer.add_string args (Printf.sprintf ",\"bytes\":%d" sp.Span.sp_bytes);
      (match sp.Span.sp_note with
      | Some n -> Buffer.add_string args (Printf.sprintf ",\"note\":\"%s\"" (json_escape n))
      | None -> ());
      if sp.Span.sp_drop then Buffer.add_string args ",\"drop\":true";
      if sp.Span.sp_fault then Buffer.add_string args ",\"fault\":true";
      Buffer.add_string b
        (Printf.sprintf
           ",\n {\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.6f,\"dur\":%.6f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
           (json_escape sp.Span.sp_name)
           (Span.kind_to_string sp.Span.sp_kind)
           (sp.Span.sp_start_ns /. 1000.0)
           ((sp.Span.sp_end_ns -. sp.Span.sp_start_ns) /. 1000.0)
           (tid_of sp.Span.sp_name) (Buffer.contents args)))
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ---------------- JSONL ---------------- *)

let jsonl store =
  let b = Buffer.create 4096 in
  Span.iter store (fun sp ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"parent\":%d,\"packet\":%d,\"kind\":\"%s\",\"name\":\"%s\",\"start_ns\":%.3f,\"end_ns\":%.3f,\"bytes\":%d,\"drop\":%b,\"fault\":%b"
           sp.Span.sp_id sp.Span.sp_parent sp.Span.sp_packet
           (Span.kind_to_string sp.Span.sp_kind)
           (json_escape sp.Span.sp_name)
           sp.Span.sp_start_ns sp.Span.sp_end_ns sp.Span.sp_bytes sp.Span.sp_drop
           sp.Span.sp_fault);
      (match sp.Span.sp_note with
      | Some n -> Buffer.add_string b (Printf.sprintf ",\"note\":\"%s\"" (json_escape n))
      | None -> ());
      Buffer.add_string b "}\n");
  Buffer.contents b

(* ---------------- plain text ---------------- *)

let text store =
  let b = Buffer.create 4096 in
  Span.iter store (fun sp ->
      Buffer.add_string b
        (Printf.sprintf "[%12.1f .. %12.1f] pkt=%-5d %-8s %-24s" sp.Span.sp_start_ns
           sp.Span.sp_end_ns sp.Span.sp_packet
           (Span.kind_to_string sp.Span.sp_kind)
           sp.Span.sp_name);
      if sp.Span.sp_bytes > 0 then Buffer.add_string b (Printf.sprintf " %4dB" sp.Span.sp_bytes);
      (match sp.Span.sp_note with
      | Some n -> Buffer.add_string b (" " ^ n)
      | None -> ());
      if sp.Span.sp_drop then Buffer.add_string b " DROP";
      if sp.Span.sp_fault then Buffer.add_string b " FAULT";
      Buffer.add_char b '\n');
  Buffer.add_string b
    (Printf.sprintf "%d spans retained, %d evicted (capacity %d)\n" (Span.count store)
       (Span.dropped store) (Span.capacity store));
  Buffer.contents b

(* ---------------- Prometheus text exposition ---------------- *)

let prom_name name =
  let b = Buffer.create (String.length name + 9) in
  Buffer.add_string b "netdebug_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* HELP text is a single logical line in the exposition format: literal
   backslashes and newlines must be escaped per the Prometheus spec. *)
let prom_escape_help s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_quantiles = [ 50.0; 90.0; 99.0; 99.9 ]

let prometheus registry =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, help, value) ->
      let n = prom_name name in
      if help <> "" then
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" n (prom_escape_help help));
      match value with
      | Registry.Counter v ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %Ld\n" n n v)
      | Registry.Gauge v ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %.6g\n" n n v)
      | Registry.Histogram h ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
          List.iter
            (fun q ->
              (* label derived from the value itself, so adding or changing a
                 quantile can never mislabel the series *)
              Buffer.add_string b
                (Printf.sprintf "%s{quantile=\"%g\"} %.6g\n" n (q /. 100.)
                   (Stats.Histogram.percentile h q)))
            prom_quantiles;
          Buffer.add_string b (Printf.sprintf "%s_sum %.6g\n" n (Stats.Histogram.total h));
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" n (Stats.Histogram.count h));
          Buffer.add_string b
            (Printf.sprintf "%s_min %.6g\n" n (Stats.Histogram.min_value h));
          Buffer.add_string b
            (Printf.sprintf "%s_max %.6g\n" n (Stats.Histogram.max_value h)))
    (Registry.snapshot registry);
  Buffer.contents b

let rec mkdir_p dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok () else Error (dir ^ ": not a directory")
  else
    let parent = Filename.dirname dir in
    match if parent = dir then Ok () else mkdir_p parent with
    | Error _ as e -> e
    | Ok () -> (
        try Ok (Sys.mkdir dir 0o755)
        with Sys_error msg ->
          (* lost a race with another creator: fine if it made a directory *)
          if Sys.file_exists dir && Sys.is_directory dir then Ok () else Error msg)

let write_files ~dir files =
  (match mkdir_p dir with Ok () -> () | Error msg -> raise (Sys_error msg));
  List.map
    (fun (name, contents) ->
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      path)
    files
