module Bitstring = Bitutil.Bitstring

(* Shrink a diverging input while preserving its divergence fingerprint.
   Two phases, free of randomness, so equal inputs give equal
   reproducers:
     1. tail truncation in halving byte chunks — drops payload and
        trailing headers the divergence never needed;
     2. field canonicalization — zero every layout field whose value is
        irrelevant, leaving only the bits that drive the divergence. *)

let still oracle fingerprint candidate =
  match (Oracle.execute oracle candidate).Oracle.x_divergence with
  | Some d -> String.equal d.Oracle.d_fingerprint fingerprint
  | None -> false

let minimize oracle (layout : Mutate.layout) ~fingerprint input =
  (* every probe is a full oracle execution; run the whole shrink inside
     one batch window so they take the direct device path *)
  Oracle.with_batch oracle @@ fun () ->
  let cur = ref input in
  let len = ref (Bitstring.length input) in
  (* phase 1: tail truncation *)
  let chunk = ref (max 8 (!len / 2 / 8 * 8)) in
  while !chunk >= 8 do
    if !len - !chunk >= 8 then begin
      let cand = Bitstring.sub !cur ~off:0 ~len:(!len - !chunk) in
      if still oracle fingerprint cand then begin
        cur := cand;
        len := !len - !chunk
      end
      else chunk := !chunk / 2
    end
    else chunk := !chunk / 2
  done;
  (* phase 2: field canonicalization *)
  Array.iter
    (fun (f : Mutate.field) ->
      if f.Mutate.fl_off + f.Mutate.fl_width <= !len then begin
        let zeroed = Bitstring.set_int64 !cur ~off:f.Mutate.fl_off ~width:f.Mutate.fl_width 0L in
        if (not (Bitstring.equal zeroed !cur)) && still oracle fingerprint zeroed then
          cur := zeroed
      end)
    layout.Mutate.fields;
  !cur
