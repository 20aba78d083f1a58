(* A dependency-free HTTP/1.0 metrics endpoint over Unix sockets: enough
   protocol to let Prometheus (or curl) scrape GET /metrics and
   GET /health from a running soak/serve loop. Single-threaded and
   poll-driven: the owning loop calls [poll] between windows; each call
   accepts and answers every pending connection without blocking the
   loop when none are waiting.

   Routes are closures evaluated per request, so responses always
   reflect the live registry/health state. *)

type route = { content_type : string; body : unit -> string }

type t = {
  sock : Unix.file_descr;
  port : int;
  routes : (string * route) list;
  mutable served : int;
  mutable closed : bool;
}

let route ~content_type body = { content_type; body }

let create ?(host = "127.0.0.1") ?(port = 0) routes =
  if port < 0 || port > 65535 then invalid_arg "Http.create: port must be in 0..65535";
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen sock 16;
     Unix.set_nonblock sock
   with e ->
     Unix.close sock;
     raise e);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { sock; port; routes; served = 0; closed = false }

let port t = t.port

let served t = t.served

(* Read until the header terminator (clients send GETs in one segment,
   but don't rely on it), bounded in size and wall time. *)
let read_request fd =
  let deadline = Unix.gettimeofday () +. 2.0 in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let terminated () =
    let s = Buffer.contents buf in
    let n = String.length s in
    let rec scan i =
      i + 4 <= n && (String.sub s i 4 = "\r\n\r\n" || scan (i + 1))
    in
    (n >= 2 && scan 0) || (n >= 2 && String.length s >= 2 && String.sub s (n - 2) 2 = "\n\n")
  in
  let rec go () =
    if terminated () || Buffer.length buf > 8192 then Buffer.contents buf
    else
      let timeout = deadline -. Unix.gettimeofday () in
      if timeout <= 0. then Buffer.contents buf
      else
        match Unix.select [ fd ] [] [] timeout with
        | [], _, _ -> Buffer.contents buf
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> Buffer.contents buf
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                go ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> go ()
            | exception Unix.Unix_error (_, _, _) -> Buffer.contents buf)
  in
  go ()

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  (try
     while !off < len do
       off := !off + Unix.write fd b !off (len - !off)
     done
   with Unix.Unix_error (_, _, _) -> ())

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let request_path request =
  match String.index_opt request '\n' with
  | None -> None
  | Some eol -> (
      let line = String.trim (String.sub request 0 eol) in
      match String.split_on_char ' ' line with
      | meth :: path :: _ when String.uppercase_ascii meth = "GET" ->
          (* strip any query string *)
          Some
            (match String.index_opt path '?' with
            | Some q -> String.sub path 0 q
            | None -> path)
      | _ -> None)

let handle t fd =
  let request = read_request fd in
  let reply =
    match request_path request with
    | None ->
        response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
          "only GET is supported\n"
    | Some path -> (
        match List.assoc_opt path t.routes with
        | Some r -> (
            match r.body () with
            | body -> response ~status:"200 OK" ~content_type:r.content_type body
            | exception e ->
                response ~status:"500 Internal Server Error" ~content_type:"text/plain"
                  (Printexc.to_string e ^ "\n"))
        | None ->
            response ~status:"404 Not Found" ~content_type:"text/plain"
              (Printf.sprintf "no route for %s; try %s\n" path
                 (String.concat " " (List.map fst t.routes))))
  in
  write_all fd reply;
  t.served <- t.served + 1

(* connections answered per poll at most *)
let max_requests = 32

let poll t =
  if t.closed then 0
  else begin
    let n = ref 0 in
    (try
       while !n < max_requests do
         let fd, _addr = Unix.accept t.sock in
         (try
            Unix.clear_nonblock fd;
            handle t fd
          with _ -> ());
         (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
         incr n
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | Unix.Unix_error (Unix.EINTR, _, _) -> ());
    !n
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.sock with Unix.Unix_error (_, _, _) -> ()
  end
