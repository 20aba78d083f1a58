type t = { src_port : int64; dst_port : int64; length : int64; checksum : int64 }

let size_bits = 64

let make ?(src_port = 1234L) ?(dst_port = 4321L) ~payload_len () =
  { src_port; dst_port; length = Int64.of_int (8 + payload_len); checksum = 0L }

let encode w t =
  Bitstring.Writer.push_int64 w ~width:16 t.src_port;
  Bitstring.Writer.push_int64 w ~width:16 t.dst_port;
  Bitstring.Writer.push_int64 w ~width:16 t.length;
  Bitstring.Writer.push_int64 w ~width:16 t.checksum

let decode r =
  let src_port = Bitstring.Reader.read r 16 in
  let dst_port = Bitstring.Reader.read r 16 in
  let length = Bitstring.Reader.read r 16 in
  let checksum = Bitstring.Reader.read r 16 in
  { src_port; dst_port; length; checksum }

let to_bits t =
  let w = Bitstring.Writer.create () in
  encode w t;
  Bitstring.Writer.contents w

let equal a b = a = b
