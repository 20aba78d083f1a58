(* Unit and property tests for the bit-level substrate. *)

module Bitstring = Bitutil.Bitstring
module Prng = Bitutil.Prng
module Checksum = Bitutil.Checksum

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------------- Prng ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_i64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different streams" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_int_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_bits_width () =
  let p = Prng.create 3 in
  for w = 1 to 64 do
    let v = Prng.bits p ~width:w in
    if w < 64 then
      check_bool "within width" true
        (Int64.unsigned_compare v (Int64.shift_left 1L w) < 0)
  done

let test_prng_split_independent () =
  let a = Prng.create 5 in
  let b = Prng.split a in
  check_bool "split differs" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_float_range () =
  let p = Prng.create 11 in
  for _ = 1 to 1000 do
    let f = Prng.float p 3.5 in
    if f < 0.0 || f >= 3.5 then Alcotest.failf "float out of range: %f" f
  done

(* skipping n draws lands exactly where n real draws do, so the stream
   that follows is the same *)
let test_prng_advance () =
  List.iter
    (fun n ->
      let drawn = Prng.create 99 and skipped = Prng.create 99 in
      for _ = 1 to n do
        ignore (Prng.next_int64 drawn)
      done;
      Prng.advance skipped n;
      for _ = 1 to 8 do
        check_i64 (Printf.sprintf "draw after skipping %d" n) (Prng.next_int64 drawn)
          (Prng.next_int64 skipped)
      done)
    [ 0; 1; 17 ]

(* ---------------- Bitstring ---------------- *)

let test_of_int64_roundtrip () =
  let b = Bitstring.of_int64 ~width:16 0x0800L in
  check_i64 "extract back" 0x0800L (Bitstring.extract b ~off:0 ~width:16);
  check_int "length" 16 (Bitstring.length b)

let test_of_hex () =
  let b = Bitstring.of_hex "dead beef" in
  check_int "32 bits" 32 (Bitstring.length b);
  check_str "hex out" "deadbeef" (Bitstring.to_hex b)

let test_of_hex_rejects () =
  Alcotest.check_raises "odd digits" (Invalid_argument "Bitstring.of_hex: odd digit count")
    (fun () -> ignore (Bitstring.of_hex "abc"));
  (try
     ignore (Bitstring.of_hex "zz");
     Alcotest.fail "accepted non-hex"
   with Invalid_argument _ -> ())

let test_append_extract () =
  let a = Bitstring.of_int64 ~width:4 0xAL in
  let b = Bitstring.of_int64 ~width:12 0xBCDL in
  let c = Bitstring.append a b in
  check_int "length" 16 (Bitstring.length c);
  check_i64 "combined" 0xABCDL (Bitstring.extract c ~off:0 ~width:16);
  check_i64 "tail" 0xBCDL (Bitstring.extract c ~off:4 ~width:12)

let test_sub () =
  let b = Bitstring.of_hex "0123456789" in
  let s = Bitstring.sub b ~off:8 ~len:16 in
  check_i64 "middle bytes" 0x2345L (Bitstring.extract s ~off:0 ~width:16)

let test_sub_unaligned () =
  let b = Bitstring.of_int64 ~width:16 0b1010_1100_1111_0001L in
  let s = Bitstring.sub b ~off:3 ~len:5 in
  check_i64 "unaligned slice" 0b01100L (Bitstring.extract s ~off:0 ~width:5)

let test_set_int64 () =
  let b = Bitstring.of_int64 ~width:24 0L in
  let b = Bitstring.set_int64 b ~off:8 ~width:8 0xFFL in
  check_i64 "patched" 0x00FF00L (Bitstring.extract b ~off:0 ~width:24)

let test_get_bit () =
  let b = Bitstring.of_int64 ~width:8 0b1000_0001L in
  check_bool "bit 0" true (Bitstring.get_bit b 0);
  check_bool "bit 1" false (Bitstring.get_bit b 1);
  check_bool "bit 7" true (Bitstring.get_bit b 7)

let test_bounds_checking () =
  let b = Bitstring.of_int64 ~width:8 0xFFL in
  (try
     ignore (Bitstring.extract b ~off:4 ~width:8);
     Alcotest.fail "no range error"
   with Invalid_argument _ -> ());
  try
    ignore (Bitstring.sub b ~off:0 ~len:9);
    Alcotest.fail "no range error"
  with Invalid_argument _ -> ()

let test_writer_reader_roundtrip () =
  let w = Bitstring.Writer.create () in
  Bitstring.Writer.push_int64 w ~width:4 0x5L;
  Bitstring.Writer.push_int64 w ~width:12 0x678L;
  Bitstring.Writer.push_int64 w ~width:48 0x112233445566L;
  let bits = Bitstring.Writer.contents w in
  check_int "total width" 64 (Bitstring.length bits);
  let r = Bitstring.Reader.create bits in
  check_i64 "f1" 0x5L (Bitstring.Reader.read r 4);
  check_i64 "f2" 0x678L (Bitstring.Reader.read r 12);
  check_i64 "f3" 0x112233445566L (Bitstring.Reader.read r 48);
  check_int "exhausted" 0 (Bitstring.Reader.remaining r)

let test_reader_underrun () =
  let r = Bitstring.Reader.create (Bitstring.of_int64 ~width:8 1L) in
  try
    ignore (Bitstring.Reader.read r 16);
    Alcotest.fail "no underrun error"
  with Invalid_argument _ -> ()

let test_writer_growth () =
  let w = Bitstring.Writer.create () in
  for i = 1 to 1000 do
    Bitstring.Writer.push_int64 w ~width:16 (Int64.of_int i)
  done;
  let bits = Bitstring.Writer.contents w in
  check_int "16000 bits" 16000 (Bitstring.length bits);
  check_i64 "last element" 1000L (Bitstring.extract bits ~off:(999 * 16) ~width:16)

let test_concat_list () =
  let parts = List.init 8 (fun i -> Bitstring.of_int64 ~width:8 (Int64.of_int i)) in
  let all = Bitstring.concat parts in
  check_int "64 bits" 64 (Bitstring.length all);
  check_i64 "byte 3" 3L (Bitstring.extract all ~off:24 ~width:8)

(* Every offset and width of random strings of 1–17 bytes, with and
   without a partial final byte, against a bit-by-bit read: the 64-bit
   load from the field's first byte, the load pulled back to the last 8
   bytes where that one would run past the end, and the byte loop for
   short strings and fields spanning 9 bytes. *)
let test_extract_matches_get_bit () =
  let prng = Prng.create 17 in
  for nbytes = 1 to 17 do
    for pad = 0 to 7 do
      let b = Bitstring.random prng ((nbytes * 8) - pad) in
      let len = Bitstring.length b in
      for off = 0 to len do
        for width = 0 to min 64 (len - off) do
          let expect = ref 0L in
          for i = off to off + width - 1 do
            expect :=
              Int64.logor (Int64.shift_left !expect 1) (if Bitstring.get_bit b i then 1L else 0L)
          done;
          if Bitstring.extract b ~off ~width <> !expect then
            Alcotest.failf "extract ~off:%d ~width:%d of a %d-bit string" off width len
        done
      done
    done
  done

(* property tests *)

let gen_width = QCheck.Gen.int_range 1 64

let prop_of_int64_extract =
  QCheck.Test.make ~count:500 ~name:"of_int64/extract roundtrip"
    QCheck.(pair (make gen_width) int64)
    (fun (w, v) ->
      let masked =
        if w = 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L w) 1L)
      in
      let b = Bitstring.of_int64 ~width:w v in
      Bitstring.extract b ~off:0 ~width:w = masked)

let prop_append_length =
  QCheck.Test.make ~count:300 ~name:"append preserves content"
    QCheck.(pair (pair (make gen_width) int64) (pair (make gen_width) int64))
    (fun ((w1, v1), (w2, v2)) ->
      let a = Bitstring.of_int64 ~width:w1 v1 and b = Bitstring.of_int64 ~width:w2 v2 in
      let c = Bitstring.append a b in
      Bitstring.length c = w1 + w2
      && Bitstring.equal (Bitstring.sub c ~off:0 ~len:w1) a
      && Bitstring.equal (Bitstring.sub c ~off:w1 ~len:w2) b)

let prop_sub_concat_identity =
  QCheck.Test.make ~count:300 ~name:"split/concat identity"
    QCheck.(pair small_nat (int_bound 2000))
    (fun (seed, n) ->
      let n = max 1 n in
      let prng = Prng.create seed in
      let b = Bitstring.random prng n in
      let cut = n / 2 in
      let recombined =
        Bitstring.append (Bitstring.sub b ~off:0 ~len:cut)
          (Bitstring.sub b ~off:cut ~len:(n - cut))
      in
      Bitstring.equal b recombined)

let prop_set_get =
  QCheck.Test.make ~count:300 ~name:"set_int64/extract agree"
    QCheck.(triple small_nat (make gen_width) int64)
    (fun (seed, w, v) ->
      let prng = Prng.create seed in
      let b = Bitstring.random prng 128 in
      let off = Prng.int prng (128 - w + 1) in
      let b' = Bitstring.set_int64 b ~off ~width:w v in
      let masked =
        if w = 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L w) 1L)
      in
      Bitstring.extract b' ~off ~width:w = masked && Bitstring.length b' = 128)

(* ---------------- Checksum ---------------- *)

(* RFC 1071 worked example *)
let test_checksum_rfc_example () =
  let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071 sum" 0xddf2 (Checksum.ones_complement_sum data)

let test_checksum_verifies_itself () =
  let data = "\x45\x00\x00\x1c\x00\x00\x40\x00\x40\x11\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02" in
  let sum = Checksum.checksum data in
  let patched =
    String.mapi
      (fun i c ->
        if i = 10 then Char.chr (sum lsr 8) else if i = 11 then Char.chr (sum land 0xff) else c)
      data
  in
  check_bool "self-verifies" true (Checksum.valid patched)

let test_checksum_odd_length () =
  (* padding with a zero byte must match manual computation *)
  check_int "odd data" (Checksum.checksum "\x01\x02\x03") (Checksum.checksum "\x01\x02\x03\x00")

let prop_checksum_detects_single_flip =
  QCheck.Test.make ~count:200 ~name:"checksum catches any single-byte change"
    QCheck.(pair small_nat (int_bound 255))
    (fun (seed, delta) ->
      QCheck.assume (delta > 0);
      let prng = Prng.create seed in
      let n = 20 in
      let data =
        String.init n (fun _ -> Char.chr (Prng.int prng 256))
      in
      let sum = Checksum.checksum data in
      let with_sum = data ^ String.init 2 (fun i -> Char.chr (if i = 0 then sum lsr 8 else sum land 0xff)) in
      let pos = Prng.int prng n in
      let corrupted =
        String.mapi
          (fun i c -> if i = pos then Char.chr ((Char.code c + delta) land 0xff) else c)
          with_sum
      in
      (* one's-complement checksums catch all single-byte modifications
         except 0x00 <-> 0xff aliasing *)
      let before = with_sum.[pos] and after = corrupted.[pos] in
      let aliased =
        (before = '\x00' && after = '\xff') || (before = '\xff' && after = '\x00')
      in
      aliased || not (Checksum.valid corrupted))

(* ---------------- Hexdump ---------------- *)

let test_hexdump_shape () =
  let s = Bitutil.Hexdump.to_string "ABCDEFGHIJKLMNOPQR" in
  check_bool "has offset" true (String.length s > 0 && String.sub s 0 4 = "0000");
  check_bool "ascii gutter" true (String.contains s '|')

(* ---------------- Builder / blit_int64 ---------------- *)

let mask_to_width w v =
  if w >= 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L w) 1L)

let test_blit_int64_basic () =
  let bytes = Bytes.make 4 '\x00' in
  Bitstring.blit_int64 bytes ~off:4 ~width:12 0xABCL;
  Alcotest.(check string) "unaligned blit" "\x0a\xbc\x00\x00" (Bytes.to_string bytes);
  Bitstring.blit_int64 bytes ~off:24 ~width:8 0xFFL;
  Alcotest.(check string) "aligned blit" "\x0a\xbc\x00\xff" (Bytes.to_string bytes)

(* Buffers of the field's bytes plus 0–16, so shorter and longer than the
   8-byte word; every other draw ends the field in the buffer's last 8
   bytes, where the word must be loaded from the end rather than from the
   field's first byte. *)
let prop_blit_int64_matches_set_int64 =
  QCheck.Test.make ~count:500 ~name:"blit_int64 == set_int64 on byte buffers"
    QCheck.(triple small_nat (int_range 1 64) small_nat)
    (fun (seed, width, nextra) ->
      let prng = Prng.create seed in
      let nbytes = ((width + 7) / 8) + (nextra mod 17) in
      let s = String.init nbytes (fun _ -> Char.chr (Prng.int prng 256)) in
      let last = (nbytes * 8) - width in
      let off =
        if Prng.bool prng then last - Prng.int prng (min last 63 + 1)
        else Prng.int prng (last + 1)
      in
      let v = Prng.next_int64 prng in
      let expect = Bitstring.set_int64 (Bitstring.of_string s) ~off ~width v in
      let bytes = Bytes.of_string s in
      Bitstring.blit_int64 bytes ~off ~width (mask_to_width width v);
      Bitstring.equal expect (Bitstring.of_string (Bytes.to_string bytes)))

(* A builder fed a random op sequence must agree with the immutable
   of_int64/sub/concat composition of the same pieces — including when the
   builder is reset and reused, which is how the staged deparser drives it.
   Half the builders start at one byte and grow; the other half start at
   exactly the first round's length, so that round's last writes land in
   the buffer's last 8 bytes. *)
let prop_builder_matches_reference =
  QCheck.Test.make ~count:300 ~name:"Builder == set_int64/concat composition"
    QCheck.(pair small_nat small_nat)
    (fun (seed, seed') ->
      (* a round: each op with the piece the reference composes *)
      let ops seed =
        let prng = Prng.create seed in
        List.init (1 + Prng.int prng 12) (fun _ ->
            match Prng.int prng 3 with
            | 0 ->
                let w = 1 + Prng.int prng 64 in
                let v = mask_to_width w (Prng.next_int64 prng) in
                ( (fun bld -> Bitstring.Builder.add_int64 bld ~width:w v),
                  Bitstring.of_int64 ~width:w v )
            | 1 ->
                let bs = Bitstring.random prng (Prng.int prng 100) in
                ((fun bld -> Bitstring.Builder.add_bits bld bs), bs)
            | _ ->
                let len = Prng.int prng 80 in
                let bs = Bitstring.random prng (len + Prng.int prng 40) in
                let off = Prng.int prng (Bitstring.length bs - len + 1) in
                ( (fun bld -> Bitstring.Builder.add_sub bld bs ~off ~len),
                  Bitstring.sub bs ~off ~len ))
      in
      let first = ops seed and second = ops (seed + seed' + 1) in
      let capacity_bits =
        if seed land 1 = 0 then 8
        else max 1 (List.fold_left (fun acc (_, p) -> acc + Bitstring.length p) 0 first)
      in
      let bld = Bitstring.Builder.create ~capacity_bits () in
      let round ops =
        Bitstring.Builder.reset bld;
        List.iter (fun (add, _) -> add bld) ops;
        let expect = Bitstring.concat (List.map snd ops) in
        Bitstring.Builder.length bld = Bitstring.length expect
        && Bitstring.equal (Bitstring.Builder.contents bld) expect
      in
      round first && round second)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_of_int64_extract; prop_append_length; prop_sub_concat_identity; prop_set_get;
    prop_checksum_detects_single_flip; prop_blit_int64_matches_set_int64;
    prop_builder_matches_reference ]

let () =
  Alcotest.run "bitutil"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "bits width" `Quick test_prng_bits_width;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "advance skips draws" `Quick test_prng_advance;
        ] );
      ( "bitstring",
        [
          Alcotest.test_case "of_int64 roundtrip" `Quick test_of_int64_roundtrip;
          Alcotest.test_case "of_hex" `Quick test_of_hex;
          Alcotest.test_case "of_hex rejects" `Quick test_of_hex_rejects;
          Alcotest.test_case "append/extract" `Quick test_append_extract;
          Alcotest.test_case "sub" `Quick test_sub;
          Alcotest.test_case "sub unaligned" `Quick test_sub_unaligned;
          Alcotest.test_case "set_int64" `Quick test_set_int64;
          Alcotest.test_case "get_bit" `Quick test_get_bit;
          Alcotest.test_case "bounds checking" `Quick test_bounds_checking;
          Alcotest.test_case "writer/reader roundtrip" `Quick test_writer_reader_roundtrip;
          Alcotest.test_case "reader underrun" `Quick test_reader_underrun;
          Alcotest.test_case "writer growth" `Quick test_writer_growth;
          Alcotest.test_case "concat list" `Quick test_concat_list;
          Alcotest.test_case "blit_int64" `Quick test_blit_int64_basic;
          Alcotest.test_case "extract == get_bit, every offset and width" `Quick
            test_extract_matches_get_bit;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc_example;
          Alcotest.test_case "self-verifies" `Quick test_checksum_verifies_itself;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
        ] );
      ("hexdump", [ Alcotest.test_case "shape" `Quick test_hexdump_shape ]);
      ("properties", qsuite);
    ]
