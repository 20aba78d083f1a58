type record = { ts_ns : float; data : string }

let snaplen = 65535

let put_u16le b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let put_u32le b v =
  put_u16le b (v land 0xffff);
  put_u16le b ((v lsr 16) land 0xffff)

let encode records =
  let b = Buffer.create 1024 in
  put_u32le b 0xa1b2c3d4;
  put_u16le b 2 (* version major *);
  put_u16le b 4 (* version minor *);
  put_u32le b 0 (* thiszone *);
  put_u32le b 0 (* sigfigs *);
  put_u32le b snaplen;
  put_u32le b 1 (* LINKTYPE_ETHERNET *);
  List.iter
    (fun r ->
      let total_us = r.ts_ns /. 1000.0 in
      let sec = int_of_float (total_us /. 1e6) in
      let usec = int_of_float (Float.rem total_us 1e6) in
      let incl = min (String.length r.data) snaplen in
      put_u32le b sec;
      put_u32le b usec;
      put_u32le b incl;
      put_u32le b (String.length r.data);
      Buffer.add_substring b r.data 0 incl)
    records;
  Buffer.contents b

exception Bad of string

let get_u32le s pos =
  if !pos + 4 > String.length s then raise (Bad "truncated");
  let v =
    Char.code s.[!pos]
    lor (Char.code s.[!pos + 1] lsl 8)
    lor (Char.code s.[!pos + 2] lsl 16)
    lor (Char.code s.[!pos + 3] lsl 24)
  in
  pos := !pos + 4;
  v

let decode s =
  try
    let pos = ref 0 in
    let magic = get_u32le s pos in
    if magic <> 0xa1b2c3d4 then raise (Bad "bad magic (expect LE usec pcap)");
    let _version = get_u32le s pos in
    let _thiszone = get_u32le s pos in
    let _sigfigs = get_u32le s pos in
    let _snaplen = get_u32le s pos in
    let network = get_u32le s pos in
    if network <> 1 then raise (Bad "not an Ethernet capture");
    let records = ref [] in
    while !pos < String.length s do
      let sec = get_u32le s pos in
      let usec = get_u32le s pos in
      let incl = get_u32le s pos in
      let _orig = get_u32le s pos in
      if !pos + incl > String.length s then raise (Bad "truncated record");
      let data = String.sub s !pos incl in
      pos := !pos + incl;
      records :=
        { ts_ns = ((float_of_int sec *. 1e6) +. float_of_int usec) *. 1000.0; data }
        :: !records
    done;
    Ok (List.rev !records)
  with Bad e -> Error e

let write_file path records =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (encode records))
