type t = {
  version : int64;
  traffic_class : int64;
  flow_label : int64;
  payload_len : int64;
  next_header : int64;
  hop_limit : int64;
  src_hi : int64;
  src_lo : int64;
  dst_hi : int64;
  dst_lo : int64;
}

let size_bits = 320

let make ?(next_header = Proto.ipproto_udp) ?(hop_limit = 64L) ?(src = (0L, 0L))
    ?(dst = (0L, 0L)) ~payload_len () =
  let src_hi, src_lo = src in
  let dst_hi, dst_lo = dst in
  {
    version = 6L;
    traffic_class = 0L;
    flow_label = 0L;
    payload_len = Int64.of_int payload_len;
    next_header;
    hop_limit;
    src_hi;
    src_lo;
    dst_hi;
    dst_lo;
  }

let encode w t =
  Bitstring.Writer.push_int64 w ~width:4 t.version;
  Bitstring.Writer.push_int64 w ~width:8 t.traffic_class;
  Bitstring.Writer.push_int64 w ~width:20 t.flow_label;
  Bitstring.Writer.push_int64 w ~width:16 t.payload_len;
  Bitstring.Writer.push_int64 w ~width:8 t.next_header;
  Bitstring.Writer.push_int64 w ~width:8 t.hop_limit;
  Bitstring.Writer.push_int64 w ~width:64 t.src_hi;
  Bitstring.Writer.push_int64 w ~width:64 t.src_lo;
  Bitstring.Writer.push_int64 w ~width:64 t.dst_hi;
  Bitstring.Writer.push_int64 w ~width:64 t.dst_lo

let decode r =
  let version = Bitstring.Reader.read r 4 in
  let traffic_class = Bitstring.Reader.read r 8 in
  let flow_label = Bitstring.Reader.read r 20 in
  let payload_len = Bitstring.Reader.read r 16 in
  let next_header = Bitstring.Reader.read r 8 in
  let hop_limit = Bitstring.Reader.read r 8 in
  let src_hi = Bitstring.Reader.read r 64 in
  let src_lo = Bitstring.Reader.read r 64 in
  let dst_hi = Bitstring.Reader.read r 64 in
  let dst_lo = Bitstring.Reader.read r 64 in
  { version; traffic_class; flow_label; payload_len; next_header; hop_limit;
    src_hi; src_lo; dst_hi; dst_lo }

let to_bits t =
  let w = Bitstring.Writer.create () in
  encode w t;
  Bitstring.Writer.contents w

let equal a b = a = b
