(* Invariant: [data] has exactly [(len+7)/8] bytes and all pad bits in the
   final partial byte are zero, so structural equality on [data] is bit
   equality. *)
type t = { data : string; len : int }

let empty = { data = ""; len = 0 }

let length t = t.len

let byte_length t = (t.len + 7) / 8

let bytes_for_bits n = (n + 7) / 8

let get_bit_raw s i =
  Char.code (String.unsafe_get s (i lsr 3)) land (0x80 lsr (i land 7)) <> 0

let set_bit_raw b i v =
  let byte = Char.code (Bytes.unsafe_get b (i lsr 3)) in
  let mask = 0x80 lsr (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set b (i lsr 3) (Char.unsafe_chr byte)

(* Copy [len] bits from [src] at bit [srcoff] into [dst] at bit [dstoff];
   byte-aligned fast path for the common packet-payload case. *)
let blit_bits src srcoff dst dstoff len =
  if srcoff land 7 = 0 && dstoff land 7 = 0 then begin
    let full = len lsr 3 in
    Bytes.blit_string src (srcoff lsr 3) dst (dstoff lsr 3) full;
    for i = len land lnot 7 to len - 1 do
      set_bit_raw dst (dstoff + i) (get_bit_raw src (srcoff + i))
    done
  end
  else
    for i = 0 to len - 1 do
      set_bit_raw dst (dstoff + i) (get_bit_raw src (srcoff + i))
    done

let of_string s = { data = s; len = String.length s * 8 }

let to_string t =
  if t.len land 7 = 0 then t.data
  else t.data (* invariant: already padded with zeros *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bitstring.of_hex: non-hex character"

let of_hex s =
  let digits = ref [] in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '_' | ':' -> ()
      | c -> digits := hex_val c :: !digits)
    s;
  let digits = Array.of_list (List.rev !digits) in
  let n = Array.length digits in
  if n land 1 <> 0 then invalid_arg "Bitstring.of_hex: odd digit count";
  let b = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    Bytes.set b i (Char.chr ((digits.(2 * i) lsl 4) lor digits.((2 * i) + 1)))
  done;
  of_string (Bytes.unsafe_to_string b)

let to_hex t =
  let buf = Buffer.create (2 * byte_length t) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) t.data;
  Buffer.contents buf

let of_int64 ~width v =
  if width < 0 || width > 64 then invalid_arg "Bitstring.of_int64: width";
  if width = 0 then empty
  else begin
    let b = Bytes.make (bytes_for_bits width) '\000' in
    for i = 0 to width - 1 do
      let bit = Int64.logand (Int64.shift_right_logical v (width - 1 - i)) 1L in
      if bit = 1L then set_bit_raw b i true
    done;
    { data = Bytes.unsafe_to_string b; len = width }
  end

let get_bit t i =
  if i < 0 || i >= t.len then invalid_arg "Bitstring.get_bit";
  get_bit_raw t.data i

(* The first byte of an 8-byte window of a [len]-byte buffer that holds
   bits [off, off + width), or -1 when there is none. The window starts at
   the field's first byte, or at the buffer's last 8 bytes when a load
   from there would cross the end; callers have checked
   [off + width <= len * 8]. *)
let window len off width =
  if width = 0 || len < 8 then -1
  else begin
    let p = if (off lsr 3) + 8 <= len then off lsr 3 else len - 8 in
    if off - (p lsl 3) + width <= 64 then p else -1
  end

(* Byte-at-a-time read: at most 9 iterations for a 64-bit field. *)
let extract_bytes data off width =
  let v = ref 0L and pos = ref off and remaining = ref width in
  while !remaining > 0 do
    let bit_in_byte = !pos land 7 in
    let avail = 8 - bit_in_byte in
    let nbits = if !remaining < avail then !remaining else avail in
    let byte = Char.code (String.unsafe_get data (!pos lsr 3)) in
    let chunk = (byte lsr (avail - nbits)) land ((1 lsl nbits) - 1) in
    v := Int64.logor (Int64.shift_left !v nbits) (Int64.of_int chunk);
    pos := !pos + nbits;
    remaining := !remaining - nbits
  done;
  !v

(* One big-endian 64-bit load and two shifts when the field lies in one
   window (the left shift drops the bits before the field, the right one
   those after it), else the byte loop. This is the hot path of both
   parser engines. *)
let extract_raw data off width =
  let p = window (String.length data) off width in
  if p < 0 then extract_bytes data off width
  else
    Int64.shift_right_logical
      (Int64.shift_left (String.get_int64_be data p) (off - (p lsl 3)))
      (64 - width)

let extract t ~off ~width =
  if width < 0 || width > 64 then invalid_arg "Bitstring.extract: width";
  if off < 0 || off + width > t.len then invalid_arg "Bitstring.extract: range";
  extract_raw t.data off width

(* Byte-at-a-time write from the LSB end. *)
let blit_bytes b off width v =
  let v = ref v and remaining = ref width in
  let pos = ref (off + width) in
  while !remaining > 0 do
    let last = !pos - 1 in
    let bit_in_byte = last land 7 in
    let nbits = if !remaining < bit_in_byte + 1 then !remaining else bit_in_byte + 1 in
    let shift = 7 - bit_in_byte in
    let mask = ((1 lsl nbits) - 1) lsl shift in
    let chunk = Int64.to_int (Int64.logand !v (Int64.of_int ((1 lsl nbits) - 1))) lsl shift in
    let bidx = last lsr 3 in
    let cur = Char.code (Bytes.unsafe_get b bidx) in
    Bytes.unsafe_set b bidx (Char.unsafe_chr ((cur land lnot mask) lor chunk));
    v := Int64.shift_right_logical !v nbits;
    remaining := !remaining - nbits;
    pos := !pos - nbits
  done

(* Overwrite [width] bits at bit [off] with the low bits of [v], MSB first:
   one 64-bit read-modify-write when the field lies in one window (the
   window's other bits are written back as they were), else the byte
   loop. Every target bit is written (both ones and zeros), so stale
   buffer content cannot leak through. *)
let blit_int64_raw b ~off ~width v =
  let p = window (Bytes.length b) off width in
  if p < 0 then blit_bytes b off width v
  else begin
    let sh = 64 - (off - (p lsl 3)) - width in
    let mask = Int64.shift_left (Int64.shift_right_logical (-1L) (64 - width)) sh in
    let keep = Int64.logand (Bytes.get_int64_be b p) (Int64.lognot mask) in
    Bytes.set_int64_be b p (Int64.logor keep (Int64.logand (Int64.shift_left v sh) mask))
  end

let blit_int64 b ~off ~width v =
  if width < 0 || width > 64 then invalid_arg "Bitstring.blit_int64: width";
  if off < 0 || off + width > Bytes.length b * 8 then
    invalid_arg "Bitstring.blit_int64: range";
  blit_int64_raw b ~off ~width v

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Bitstring.sub";
  let b = Bytes.make (bytes_for_bits len) '\000' in
  blit_bits t.data off b 0 len;
  { data = Bytes.unsafe_to_string b; len }

let set_int64 t ~off ~width v =
  if width < 0 || width > 64 then invalid_arg "Bitstring.set_int64: width";
  if off < 0 || off + width > t.len then invalid_arg "Bitstring.set_int64: range";
  let b = Bytes.of_string t.data in
  for i = 0 to width - 1 do
    let bit = Int64.logand (Int64.shift_right_logical v (width - 1 - i)) 1L in
    set_bit_raw b (off + i) (bit = 1L)
  done;
  { data = Bytes.unsafe_to_string b; len = t.len }

let append a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else begin
    let len = a.len + b.len in
    let buf = Bytes.make (bytes_for_bits len) '\000' in
    blit_bits a.data 0 buf 0 a.len;
    blit_bits b.data 0 buf a.len b.len;
    { data = Bytes.unsafe_to_string buf; len }
  end

let concat l =
  let len = List.fold_left (fun acc t -> acc + t.len) 0 l in
  let buf = Bytes.make (bytes_for_bits len) '\000' in
  let off = ref 0 in
  List.iter
    (fun t ->
      blit_bits t.data 0 buf !off t.len;
      off := !off + t.len)
    l;
  { data = Bytes.unsafe_to_string buf; len }

let equal a b = a.len = b.len && String.equal a.data b.data

let random prng n =
  let b = Bytes.create (bytes_for_bits n) in
  for i = 0 to Bytes.length b - 1 do
    Bytes.set b i (Char.chr (Prng.int prng 256))
  done;
  (* zero the pad bits to restore the canonical-form invariant *)
  let t = { data = Bytes.unsafe_to_string b; len = Bytes.length b * 8 } in
  sub t ~off:0 ~len:n

module Writer = struct
  type bits = t

  type t = { mutable buf : Bytes.t; mutable bits : int }

  let create () = { buf = Bytes.make 64 '\000'; bits = 0 }

  let ensure w extra_bits =
    let needed = bytes_for_bits (w.bits + extra_bits) in
    if needed > Bytes.length w.buf then begin
      let cap = ref (Bytes.length w.buf) in
      while !cap < needed do
        cap := !cap * 2
      done;
      let nb = Bytes.make !cap '\000' in
      Bytes.blit w.buf 0 nb 0 (Bytes.length w.buf);
      w.buf <- nb
    end

  let push_int64 w ~width v =
    if width < 0 || width > 64 then invalid_arg "Writer.push_int64: width";
    ensure w width;
    blit_int64_raw w.buf ~off:w.bits ~width v;
    w.bits <- w.bits + width

  let push_bits w (b : bits) =
    ensure w b.len;
    blit_bits b.data 0 w.buf w.bits b.len;
    w.bits <- w.bits + b.len

  let push_string w s =
    ensure w (String.length s * 8);
    blit_bits s 0 w.buf w.bits (String.length s * 8);
    w.bits <- w.bits + (String.length s * 8)

  let length w = w.bits

  let contents w =
    let b = Bytes.make (bytes_for_bits w.bits) '\000' in
    blit_bits (Bytes.unsafe_to_string w.buf) 0 b 0 w.bits;
    { data = Bytes.unsafe_to_string b; len = w.bits }
end

module Builder = struct
  type bits = t

  (* Unlike {!Writer}, the buffer is retained across {!reset}, so a
     steady-state emit loop (the staged deparser) allocates nothing per
     packet except the final {!contents} copy. All writes fully overwrite
     their target bits, so stale content from a previous packet never
     leaks; only the pad bits of the final partial byte need
     canonicalizing, which {!contents} does. *)
  type t = { mutable buf : Bytes.t; mutable bits : int }

  let create ?(capacity_bits = 512) () =
    { buf = Bytes.make (max 1 (bytes_for_bits capacity_bits)) '\000'; bits = 0 }

  let reset b = b.bits <- 0

  let length b = b.bits

  let ensure b extra_bits =
    let needed = bytes_for_bits (b.bits + extra_bits) in
    if needed > Bytes.length b.buf then begin
      let cap = ref (Bytes.length b.buf) in
      while !cap < needed do
        cap := !cap * 2
      done;
      let nb = Bytes.make !cap '\000' in
      Bytes.blit b.buf 0 nb 0 (Bytes.length b.buf);
      b.buf <- nb
    end

  let add_int64 b ~width v =
    if width < 0 || width > 64 then invalid_arg "Builder.add_int64: width";
    ensure b width;
    blit_int64_raw b.buf ~off:b.bits ~width v;
    b.bits <- b.bits + width

  let add_bits b (src : bits) =
    ensure b src.len;
    blit_bits src.data 0 b.buf b.bits src.len;
    b.bits <- b.bits + src.len

  let add_sub b (src : bits) ~off ~len =
    if off < 0 || len < 0 || off + len > src.len then invalid_arg "Builder.add_sub";
    ensure b len;
    blit_bits src.data off b.buf b.bits len;
    b.bits <- b.bits + len

  let contents b =
    let nbytes = bytes_for_bits b.bits in
    let out = Bytes.sub b.buf 0 nbytes in
    (* zero the pad bits of the final partial byte: blit-based writes leave
       whatever the previous (longer) packet put there *)
    let pad = (nbytes * 8) - b.bits in
    if pad > 0 then begin
      let last = Char.code (Bytes.get out (nbytes - 1)) in
      Bytes.set out (nbytes - 1) (Char.unsafe_chr (last land (0xff lsl pad) land 0xff))
    end;
    { data = Bytes.unsafe_to_string out; len = b.bits }
end

module Reader = struct
  type bits = t

  type t = { src : bits; mutable pos : int }

  let create src = { src; pos = 0 }

  let pos r = r.pos

  let remaining r = r.src.len - r.pos

  let read r width =
    if width > remaining r then invalid_arg "Reader.read: underrun";
    let v = extract r.src ~off:r.pos ~width in
    r.pos <- r.pos + width;
    v

  let read_bits r len =
    if len > remaining r then invalid_arg "Reader.read_bits: underrun";
    let b = sub r.src ~off:r.pos ~len in
    r.pos <- r.pos + len;
    b

  let skip r n =
    if n > remaining r then invalid_arg "Reader.skip: underrun";
    r.pos <- r.pos + n

  let seek r pos =
    if pos < 0 || pos > r.src.len then invalid_arg "Reader.seek";
    r.pos <- pos

  let rest r = sub r.src ~off:r.pos ~len:(remaining r)
end
