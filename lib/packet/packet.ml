module Bitstring = Bitutil.Bitstring

type header =
  | Eth of Eth.t
  | Vlan of Vlan.t
  | Arp of Arp.t
  | Ipv4 of Ipv4.t
  | Ipv6 of Ipv6.t
  | Icmp of Icmp.t
  | Tcp of Tcp.t
  | Udp of Udp.t
  | Mpls of Mpls.t

type t = { headers : header list; payload : Bitstring.t }

let make headers ?(payload = Bitstring.empty) () = { headers; payload }

let payload_of_string s = Bitstring.of_string s

let encode_header w = function
  | Eth h -> Eth.encode w h
  | Vlan h -> Vlan.encode w h
  | Arp h -> Arp.encode w h
  | Ipv4 h -> Ipv4.encode w h
  | Ipv6 h -> Ipv6.encode w h
  | Icmp h -> Icmp.encode w h
  | Tcp h -> Tcp.encode w h
  | Udp h -> Udp.encode w h
  | Mpls h -> Mpls.encode w h

let serialize t =
  let w = Bitstring.Writer.create () in
  List.iter (encode_header w) t.headers;
  Bitstring.Writer.push_bits w t.payload;
  Bitstring.Writer.contents w

let byte_length t = Bitstring.byte_length (serialize t)

(* Best-effort decode: each step consumes one header and decides the next
   step from the protocol field; any failure terminates decoding with the
   remaining bits as payload. *)
let parse bits =
  let r = Bitstring.Reader.create bits in
  let acc = ref [] in
  let push h = acc := h :: !acc in
  (* on a failed decode, roll the cursor back so the undecodable bytes stay
     in the payload *)
  let guard f =
    let saved = Bitstring.Reader.pos r in
    try f ()
    with Invalid_argument _ ->
      Bitstring.Reader.seek r saved;
      None
  in
  let after_l4 () = None in
  let rec after_ip proto =
    ignore after_ip;
    if proto = Proto.ipproto_udp then
      guard (fun () ->
          push (Udp (Udp.decode r));
          after_l4 ())
    else if proto = Proto.ipproto_tcp then
      guard (fun () ->
          push (Tcp (Tcp.decode r));
          after_l4 ())
    else if proto = Proto.ipproto_icmp then
      guard (fun () ->
          push (Icmp (Icmp.decode r));
          after_l4 ())
    else None
  in
  let rec after_eth ethertype =
    if ethertype = Proto.ethertype_ipv4 then
      guard (fun () ->
          let h = Ipv4.decode r in
          push (Ipv4 h);
          after_ip h.Ipv4.protocol)
    else if ethertype = Proto.ethertype_ipv6 then
      guard (fun () ->
          let h = Ipv6.decode r in
          push (Ipv6 h);
          after_ip h.Ipv6.next_header)
    else if ethertype = Proto.ethertype_arp then
      guard (fun () ->
          push (Arp (Arp.decode r));
          None)
    else if ethertype = Proto.ethertype_vlan then
      guard (fun () ->
          let h = Vlan.decode r in
          push (Vlan h);
          after_eth h.Vlan.ethertype)
    else if ethertype = Proto.ethertype_mpls then
      let rec labels () =
        match guard (fun () -> Some (Mpls.decode r)) with
        | Some h ->
            push (Mpls h);
            if h.Mpls.bos = 1L then
              (* assume IPv4 under the bottom of stack, as routers do *)
              guard (fun () ->
                  let ip = Ipv4.decode r in
                  push (Ipv4 ip);
                  after_ip ip.Ipv4.protocol)
            else labels ()
        | None -> None
      in
      labels ()
    else None
  in
  (try
     match guard (fun () -> Some (Eth.decode r)) with
     | Some h ->
         push (Eth h);
         ignore (after_eth h.Eth.ethertype)
     | None -> ()
   with Invalid_argument _ -> ());
  { headers = List.rev !acc; payload = Bitstring.Reader.rest r }

let rec find_map_header f = function
  | [] -> None
  | h :: rest -> ( match f h with Some x -> Some x | None -> find_map_header f rest)

let find_eth t = find_map_header (function Eth h -> Some h | _ -> None) t.headers
let find_ipv4 t = find_map_header (function Ipv4 h -> Some h | _ -> None) t.headers
let find_udp t = find_map_header (function Udp h -> Some h | _ -> None) t.headers
let find_tcp t = find_map_header (function Tcp h -> Some h | _ -> None) t.headers
let find_vlan t = find_map_header (function Vlan h -> Some h | _ -> None) t.headers

let map_first f headers =
  let applied = ref false in
  List.map
    (fun h ->
      match f h with
      | Some h' when not !applied ->
          applied := true;
          h'
      | _ -> h)
    headers

let map_ipv4 f t =
  { t with headers = map_first (function Ipv4 h -> Some (Ipv4 (f h)) | _ -> None) t.headers }

let header_bits = function
  | Eth _ -> Eth.size_bits
  | Vlan _ -> Vlan.size_bits
  | Arp _ -> Arp.size_bits
  | Ipv4 _ -> Ipv4.size_bits
  | Ipv6 _ -> Ipv6.size_bits
  | Icmp _ -> Icmp.size_bits
  | Tcp _ -> Tcp.size_bits
  | Udp _ -> Udp.size_bits
  | Mpls _ -> Mpls.size_bits

(* Recompute length and checksum fields bottom-up, then chain protocol
   discriminators top-down. *)
let fixup t =
  let bits_after = ref (Bitstring.length t.payload) in
  let headers_rev = List.rev t.headers in
  let fixed_rev =
    List.map
      (fun h ->
        let payload_len = !bits_after / 8 in
        let h' =
          match h with
          | Ipv4 ip ->
              Ipv4
                (Ipv4.with_checksum
                   { ip with Ipv4.total_len = Int64.of_int (20 + payload_len) })
          | Udp u -> Udp { u with Udp.length = Int64.of_int (8 + payload_len) }
          | Ipv6 ip -> Ipv6 { ip with Ipv6.payload_len = Int64.of_int payload_len }
          | Eth _ | Vlan _ | Arp _ | Icmp _ | Tcp _ | Mpls _ -> h
        in
        bits_after := !bits_after + header_bits h;
        h')
      headers_rev
  in
  let headers = List.rev fixed_rev in
  (* chain discriminators: eth.ethertype and ipv4.protocol must match the
     following header *)
  let ethertype_for = function
    | Ipv4 _ -> Some Proto.ethertype_ipv4
    | Ipv6 _ -> Some Proto.ethertype_ipv6
    | Arp _ -> Some Proto.ethertype_arp
    | Vlan _ -> Some Proto.ethertype_vlan
    | Mpls _ -> Some Proto.ethertype_mpls
    | Eth _ | Icmp _ | Tcp _ | Udp _ -> None
  in
  let proto_for = function
    | Udp _ -> Some Proto.ipproto_udp
    | Tcp _ -> Some Proto.ipproto_tcp
    | Icmp _ -> Some Proto.ipproto_icmp
    | Eth _ | Vlan _ | Arp _ | Ipv4 _ | Ipv6 _ | Mpls _ -> None
  in
  let rec chain = function
    | [] -> []
    | [ h ] -> [ h ]
    | h :: next :: rest ->
        let h' =
          match h with
          | Eth e -> (
              match ethertype_for next with
              | Some et -> Eth { e with Eth.ethertype = et }
              | None -> h)
          | Vlan v -> (
              match ethertype_for next with
              | Some et -> Vlan { v with Vlan.ethertype = et }
              | None -> h)
          | Ipv4 ip -> (
              match proto_for next with
              | Some p -> Ipv4 (Ipv4.with_checksum { ip with Ipv4.protocol = p })
              | None -> h)
          | Ipv6 ip -> (
              match proto_for next with
              | Some p -> Ipv6 { ip with Ipv6.next_header = p }
              | None -> h)
          | Arp _ | Icmp _ | Tcp _ | Udp _ | Mpls _ -> h
        in
        h' :: chain (next :: rest)
  in
  { headers = chain headers; payload = t.payload }

let equal a b = Bitstring.equal (serialize a) (serialize b)

let default_payload n = Bitstring.of_string (String.init n (fun i -> Char.chr (i land 0xff)))

let udp_ipv4 ?(eth_src = 0x020000000001L) ?(eth_dst = 0x020000000002L)
    ?(src = 0x0A000001L) ?(dst = 0x0A000002L) ?(src_port = 1234L) ?(dst_port = 4321L)
    ?(ttl = 64L) ?(payload_bytes = 32) () =
  fixup
    {
      headers =
        [
          Eth (Eth.make ~dst:eth_dst ~src:eth_src ~ethertype:Proto.ethertype_ipv4 ());
          Ipv4 (Ipv4.make ~ttl ~protocol:Proto.ipproto_udp ~src ~dst ~payload_len:0 ());
          Udp (Udp.make ~src_port ~dst_port ~payload_len:0 ());
        ];
      payload = default_payload payload_bytes;
    }

let tcp_ipv4 ?(src = 0x0A000001L) ?(dst = 0x0A000002L) ?(src_port = 1234L)
    ?(dst_port = 80L) ?(flags = Tcp.flag_syn) () =
  fixup
    {
      headers =
        [
          Eth (Eth.make ());
          Ipv4 (Ipv4.make ~protocol:Proto.ipproto_tcp ~src ~dst ~payload_len:0 ());
          Tcp (Tcp.make ~src_port ~dst_port ~flags ());
        ];
      payload = Bitstring.empty;
    }

let arp_request ?(spa = 0x0A000001L) ?(tpa = 0x0A000002L) () =
  {
    headers =
      [
        Eth (Eth.make ~ethertype:Proto.ethertype_arp ());
        Arp (Arp.request ~sha:0x020000000001L ~spa ~tpa);
      ];
    payload = Bitstring.empty;
  }

(* Re-exports: [packet.ml] doubles as the library interface module, so the
   protocol codecs stay reachable as [Packet.Eth], [Packet.Ipv4], ... *)
module Addr = Addr
module Proto = Proto
module Eth = Eth
module Vlan = Vlan
module Arp = Arp
module Ipv4 = Ipv4
module Ipv6 = Ipv6
module Icmp = Icmp
module Tcp = Tcp
module Udp = Udp
module Mpls = Mpls
module Pcap = Pcap
