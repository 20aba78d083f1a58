let fold sum =
  let sum = ref sum in
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  !sum

let ones_complement_sum data =
  let n = String.length data in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + ((Char.code data.[!i] lsl 8) lor Char.code data.[!i + 1]);
    i := !i + 2
  done;
  if n land 1 = 1 then sum := !sum + (Char.code data.[n - 1] lsl 8);
  fold !sum

let checksum data = lnot (ones_complement_sum data) land 0xffff

let checksum_bits b = checksum (Bitstring.to_string b)

let valid data = ones_complement_sum data = 0xffff
