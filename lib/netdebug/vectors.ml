module Bitstring = Bitutil.Bitstring
module Prng = Bitutil.Prng
module Testgen = Symexec.Testgen

let from_paths program runtime =
  let report = Testgen.generate program runtime in
  let bits = List.filteri (fun i _ -> i < 64) (Testgen.packets report) in
  (* drop duplicates while keeping order *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun b ->
      let key = Bitstring.to_hex b in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    bits

let fuzz ?(seed = 77) ~count () =
  let prng = Prng.create seed in
  List.init count (fun _ ->
      let choice = Prng.int prng 10 in
      let pkt =
        if choice < 6 then
          Packet.udp_ipv4
            ~src:(Prng.bits prng ~width:32)
            ~dst:(Prng.bits prng ~width:32)
            ~src_port:(Prng.bits prng ~width:16)
            ~dst_port:(Prng.bits prng ~width:16)
            ~ttl:(Int64.of_int (1 + Prng.int prng 255))
            ~payload_bytes:(Prng.int prng 256) ()
        else if choice < 8 then
          Packet.tcp_ipv4
            ~src:(Prng.bits prng ~width:32)
            ~dst:(Prng.bits prng ~width:32)
            ~dst_port:(Prng.bits prng ~width:16)
            ()
        else if choice = 8 then
          Packet.arp_request ~spa:(Prng.bits prng ~width:32) ~tpa:(Prng.bits prng ~width:32) ()
        else
          Packet.make
            [ Packet.Eth (Packet.Eth.make ~ethertype:(Prng.bits prng ~width:16) ()) ]
            ~payload:(Bitstring.random prng (8 * Prng.int prng 64))
            ()
      in
      Packet.serialize pkt)
