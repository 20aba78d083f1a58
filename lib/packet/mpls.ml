type t = { label : int64; tc : int64; bos : int64; ttl : int64 }

let size_bits = 32

let make ?(label = 16L) ?(tc = 0L) ?(bos = 1L) ?(ttl = 64L) () = { label; tc; bos; ttl }

let encode w t =
  Bitstring.Writer.push_int64 w ~width:20 t.label;
  Bitstring.Writer.push_int64 w ~width:3 t.tc;
  Bitstring.Writer.push_int64 w ~width:1 t.bos;
  Bitstring.Writer.push_int64 w ~width:8 t.ttl

let decode r =
  let label = Bitstring.Reader.read r 20 in
  let tc = Bitstring.Reader.read r 3 in
  let bos = Bitstring.Reader.read r 1 in
  let ttl = Bitstring.Reader.read r 8 in
  { label; tc; bos; ttl }

let to_bits t =
  let w = Bitstring.Writer.create () in
  encode w t;
  Bitstring.Writer.contents w

let equal a b = a = b
