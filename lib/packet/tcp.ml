type t = {
  src_port : int64;
  dst_port : int64;
  seq : int64;
  ack : int64;
  data_offset : int64;
  reserved : int64;
  flags : int64;
  window : int64;
  checksum : int64;
  urgent : int64;
}

let size_bits = 160

let flag_syn = 0x02L
let flag_ack = 0x10L

let make ?(src_port = 1234L) ?(dst_port = 80L) ?(seq = 0L) ?(flags = flag_syn) () =
  {
    src_port;
    dst_port;
    seq;
    ack = 0L;
    data_offset = 5L;
    reserved = 0L;
    flags;
    window = 65535L;
    checksum = 0L;
    urgent = 0L;
  }

let encode w t =
  Bitstring.Writer.push_int64 w ~width:16 t.src_port;
  Bitstring.Writer.push_int64 w ~width:16 t.dst_port;
  Bitstring.Writer.push_int64 w ~width:32 t.seq;
  Bitstring.Writer.push_int64 w ~width:32 t.ack;
  Bitstring.Writer.push_int64 w ~width:4 t.data_offset;
  Bitstring.Writer.push_int64 w ~width:4 t.reserved;
  Bitstring.Writer.push_int64 w ~width:8 t.flags;
  Bitstring.Writer.push_int64 w ~width:16 t.window;
  Bitstring.Writer.push_int64 w ~width:16 t.checksum;
  Bitstring.Writer.push_int64 w ~width:16 t.urgent

let decode r =
  let src_port = Bitstring.Reader.read r 16 in
  let dst_port = Bitstring.Reader.read r 16 in
  let seq = Bitstring.Reader.read r 32 in
  let ack = Bitstring.Reader.read r 32 in
  let data_offset = Bitstring.Reader.read r 4 in
  let reserved = Bitstring.Reader.read r 4 in
  let flags = Bitstring.Reader.read r 8 in
  let window = Bitstring.Reader.read r 16 in
  let checksum = Bitstring.Reader.read r 16 in
  let urgent = Bitstring.Reader.read r 16 in
  { src_port; dst_port; seq; ack; data_offset; reserved; flags; window; checksum; urgent }

let to_bits t =
  let w = Bitstring.Writer.create () in
  encode w t;
  Bitstring.Writer.contents w

let equal a b = a = b
