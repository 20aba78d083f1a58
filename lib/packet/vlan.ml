type t = { pcp : int64; dei : int64; vid : int64; ethertype : int64 }

let size_bits = 32

let make ?(pcp = 0L) ?(dei = 0L) ?(vid = 1L) ?(ethertype = Proto.ethertype_ipv4) () =
  { pcp; dei; vid; ethertype }

let encode w t =
  Bitstring.Writer.push_int64 w ~width:3 t.pcp;
  Bitstring.Writer.push_int64 w ~width:1 t.dei;
  Bitstring.Writer.push_int64 w ~width:12 t.vid;
  Bitstring.Writer.push_int64 w ~width:16 t.ethertype

let decode r =
  let pcp = Bitstring.Reader.read r 3 in
  let dei = Bitstring.Reader.read r 1 in
  let vid = Bitstring.Reader.read r 12 in
  let ethertype = Bitstring.Reader.read r 16 in
  { pcp; dei; vid; ethertype }

let to_bits t =
  let w = Bitstring.Writer.create () in
  encode w t;
  Bitstring.Writer.contents w

let equal a b = a.pcp = b.pcp && a.dei = b.dei && a.vid = b.vid && a.ethertype = b.ethertype
