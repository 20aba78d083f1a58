type endpoint = {
  inbox : string Queue.t;
  peer_inbox : string Queue.t;
  mutable sent_bytes : int;
}

type t = endpoint * endpoint

let create () =
  let a_box = Queue.create () and b_box = Queue.create () in
  let a = { inbox = a_box; peer_inbox = b_box; sent_bytes = 0 } in
  let b = { inbox = b_box; peer_inbox = a_box; sent_bytes = 0 } in
  (a, b)

let send ep msg =
  ep.sent_bytes <- ep.sent_bytes + String.length msg;
  Queue.push msg ep.peer_inbox

let recv ep = if Queue.is_empty ep.inbox then None else Some (Queue.pop ep.inbox)

let bytes_sent ep = ep.sent_bytes
