type t = { dst : int64; src : int64; ethertype : int64 }

let size_bits = 112

let make ?(dst = 0xFFFFFFFFFFFFL) ?(src = 0L) ?(ethertype = Proto.ethertype_ipv4) () =
  { dst; src; ethertype }

let encode w t =
  Bitstring.Writer.push_int64 w ~width:48 t.dst;
  Bitstring.Writer.push_int64 w ~width:48 t.src;
  Bitstring.Writer.push_int64 w ~width:16 t.ethertype

let decode r =
  let dst = Bitstring.Reader.read r 48 in
  let src = Bitstring.Reader.read r 48 in
  let ethertype = Bitstring.Reader.read r 16 in
  { dst; src; ethertype }

let to_bits t =
  let w = Bitstring.Writer.create () in
  encode w t;
  Bitstring.Writer.contents w

let equal a b = a.dst = b.dst && a.src = b.src && a.ethertype = b.ethertype
