type t = {
  htype : int64;
  ptype : int64;
  hlen : int64;
  plen : int64;
  oper : int64;
  sha : int64;
  spa : int64;
  tha : int64;
  tpa : int64;
}

let size_bits = 224

let base ~oper ~sha ~spa ~tha ~tpa =
  { htype = 1L; ptype = Proto.ethertype_ipv4; hlen = 6L; plen = 4L; oper; sha; spa; tha; tpa }

let request ~sha ~spa ~tpa = base ~oper:1L ~sha ~spa ~tha:0L ~tpa

let encode w t =
  Bitstring.Writer.push_int64 w ~width:16 t.htype;
  Bitstring.Writer.push_int64 w ~width:16 t.ptype;
  Bitstring.Writer.push_int64 w ~width:8 t.hlen;
  Bitstring.Writer.push_int64 w ~width:8 t.plen;
  Bitstring.Writer.push_int64 w ~width:16 t.oper;
  Bitstring.Writer.push_int64 w ~width:48 t.sha;
  Bitstring.Writer.push_int64 w ~width:32 t.spa;
  Bitstring.Writer.push_int64 w ~width:48 t.tha;
  Bitstring.Writer.push_int64 w ~width:32 t.tpa

let decode r =
  let htype = Bitstring.Reader.read r 16 in
  let ptype = Bitstring.Reader.read r 16 in
  let hlen = Bitstring.Reader.read r 8 in
  let plen = Bitstring.Reader.read r 8 in
  let oper = Bitstring.Reader.read r 16 in
  let sha = Bitstring.Reader.read r 48 in
  let spa = Bitstring.Reader.read r 32 in
  let tha = Bitstring.Reader.read r 48 in
  let tpa = Bitstring.Reader.read r 32 in
  { htype; ptype; hlen; plen; oper; sha; spa; tha; tpa }

let to_bits t =
  let w = Bitstring.Writer.create () in
  encode w t;
  Bitstring.Writer.contents w

let equal a b = a = b
