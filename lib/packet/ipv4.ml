type t = {
  version : int64;
  ihl : int64;
  dscp : int64;
  ecn : int64;
  total_len : int64;
  ident : int64;
  flags : int64;
  frag_offset : int64;
  ttl : int64;
  protocol : int64;
  checksum : int64;
  src : int64;
  dst : int64;
}

let size_bits = 160

let encode w t =
  Bitstring.Writer.push_int64 w ~width:4 t.version;
  Bitstring.Writer.push_int64 w ~width:4 t.ihl;
  Bitstring.Writer.push_int64 w ~width:6 t.dscp;
  Bitstring.Writer.push_int64 w ~width:2 t.ecn;
  Bitstring.Writer.push_int64 w ~width:16 t.total_len;
  Bitstring.Writer.push_int64 w ~width:16 t.ident;
  Bitstring.Writer.push_int64 w ~width:3 t.flags;
  Bitstring.Writer.push_int64 w ~width:13 t.frag_offset;
  Bitstring.Writer.push_int64 w ~width:8 t.ttl;
  Bitstring.Writer.push_int64 w ~width:8 t.protocol;
  Bitstring.Writer.push_int64 w ~width:16 t.checksum;
  Bitstring.Writer.push_int64 w ~width:32 t.src;
  Bitstring.Writer.push_int64 w ~width:32 t.dst

let to_bits t =
  let w = Bitstring.Writer.create () in
  encode w t;
  Bitstring.Writer.contents w

let with_checksum t =
  let zeroed = { t with checksum = 0L } in
  let sum = Bitutil.Checksum.checksum_bits (to_bits zeroed) in
  { t with checksum = Int64.of_int sum }

let checksum_ok t = Bitutil.Checksum.valid (Bitstring.to_string (to_bits t))

let make ?(dscp = 0L) ?(ttl = 64L) ?(protocol = Proto.ipproto_udp) ?(src = 0L) ?(dst = 0L)
    ~payload_len () =
  with_checksum
    {
      version = 4L;
      ihl = 5L;
      dscp;
      ecn = 0L;
      total_len = Int64.of_int (20 + payload_len);
      ident = 0L;
      flags = 2L (* don't fragment *);
      frag_offset = 0L;
      ttl;
      protocol;
      checksum = 0L;
      src;
      dst;
    }

let decode r =
  let version = Bitstring.Reader.read r 4 in
  let ihl = Bitstring.Reader.read r 4 in
  let dscp = Bitstring.Reader.read r 6 in
  let ecn = Bitstring.Reader.read r 2 in
  let total_len = Bitstring.Reader.read r 16 in
  let ident = Bitstring.Reader.read r 16 in
  let flags = Bitstring.Reader.read r 3 in
  let frag_offset = Bitstring.Reader.read r 13 in
  let ttl = Bitstring.Reader.read r 8 in
  let protocol = Bitstring.Reader.read r 8 in
  let checksum = Bitstring.Reader.read r 16 in
  let src = Bitstring.Reader.read r 32 in
  let dst = Bitstring.Reader.read r 32 in
  { version; ihl; dscp; ecn; total_len; ident; flags; frag_offset; ttl; protocol;
    checksum; src; dst }

let equal a b = a = b
