type t = { icmp_type : int64; code : int64; checksum : int64; rest : int64 }

let size_bits = 64

let echo ~ty ?(ident = 1L) ?(seq = 0L) () =
  { icmp_type = ty; code = 0L; checksum = 0L;
    rest = Int64.logor (Int64.shift_left ident 16) (Int64.logand seq 0xffffL) }

let echo_request ?ident ?seq () = echo ~ty:8L ?ident ?seq ()

let encode w t =
  Bitstring.Writer.push_int64 w ~width:8 t.icmp_type;
  Bitstring.Writer.push_int64 w ~width:8 t.code;
  Bitstring.Writer.push_int64 w ~width:16 t.checksum;
  Bitstring.Writer.push_int64 w ~width:32 t.rest

let decode r =
  let icmp_type = Bitstring.Reader.read r 8 in
  let code = Bitstring.Reader.read r 8 in
  let checksum = Bitstring.Reader.read r 16 in
  let rest = Bitstring.Reader.read r 32 in
  { icmp_type; code; checksum; rest }

let to_bits t =
  let w = Bitstring.Writer.create () in
  encode w t;
  Bitstring.Writer.contents w

let equal a b = a = b
