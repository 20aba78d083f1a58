(* Bucketed match structures replacing the linear entry scan. See the .mli
   for the semantic contract. Hot-path discipline matches entry.ml: the
   lookup path allocates nothing — helpers are top-level recursions over
   ints (no local closures, no refs, no tuples), misses are the sentinel
   -1, and the per-lookup key words live in a preallocated scratch. *)

(* ------------------------------------------------------------------ *)
(* Row tables: open-addressing hash over masked key words              *)
(* ------------------------------------------------------------------ *)

(* Slot layout: one flat int array, [nk + 2] words per slot —
   [hdr; head id; masked key words...]. The header doubles as slot state
   (0 = empty, 1 = tombstone) and hash tag (the row hash, tagged so it is
   never 0 or 1): a probe that misses reads only headers, and a probe that
   hits finds the winning id and the key words on the same cache line.
   This is what keeps a million-prefix lookup inside the latency budget —
   the per-probe cost at full-feed scale is DRAM misses, not ALU work, so
   everything a probe needs lives in one place. [chains] (full id list per
   slot, ascending = install order) is control-plane-only: the head is
   mirrored into the slot, lookups never touch the list. [fill] counts
   used + tombstoned slots; growth triggers at load 1/2 (and re-hashes to
   load <= 1/3), keeping unsuccessful probe chains a couple of slots. *)
type rowtbl = {
  mutable cap : int;  (* power of two *)
  mutable slots : int array;  (* cap * (nk + 2) *)
  mutable chains : int list array;  (* entry ids, ascending *)
  mutable live : int;
  mutable fill : int;
}

let rt_create nk =
  { cap = 8; slots = Array.make (8 * (nk + 2)) 0; chains = Array.make 8 []; live = 0; fill = 0 }

(* Multiplicative mixing with an xor-shift finisher: the slot index takes
   the low bits of the hash, which a bare product leaves poorly mixed. *)
let hmix acc x =
  let h = (acc lxor x) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land max_int

(* Header tag for a row hash: bit 1 forced, so it collides with neither
   empty (0) nor tombstone (1). Dropping the hash's top bits is fine — a
   rare tag collision just costs one full row compare. *)
let hkey h = (h lsl 2) lor 2

let rec hash_masked masks ks j nk acc =
  if j >= nk then acc
  else
    hash_masked masks ks (j + 1) nk
      (hmix acc (Array.unsafe_get ks j land Array.unsafe_get masks j))

let rec hash_vals vals j nk acc =
  if j >= nk then acc else hash_vals vals (j + 1) nk (hmix acc (Array.unsafe_get vals j))

let rec hash_slot slots base j nk acc =
  if j >= nk then acc
  else hash_slot slots base (j + 1) nk (hmix acc (Array.unsafe_get slots (base + 2 + j)))

let rec row_eq_masked slots masks ks base j nk =
  j >= nk
  || Array.unsafe_get slots (base + 2 + j) = Array.unsafe_get ks j land Array.unsafe_get masks j
     && row_eq_masked slots masks ks base (j + 1) nk

let rec row_eq slots base vals j nk =
  j >= nk
  || Array.unsafe_get slots (base + 2 + j) = Array.unsafe_get vals j
     && row_eq slots base vals (j + 1) nk

(* Lookup probe: earliest-installed id of the matching row, or -1. *)
let rec rt_probe slots stride hk masks ks nk capm i =
  let base = i * stride in
  let hdr = Array.unsafe_get slots base in
  if hdr = 0 then -1
  else if hdr = hk && row_eq_masked slots masks ks base 0 nk then
    Array.unsafe_get slots (base + 1)
  else rt_probe slots stride hk masks ks nk capm ((i + 1) land capm)

let rt_find rt masks ks nk =
  let capm = rt.cap - 1 in
  let h = hash_masked masks ks 0 nk 0 in
  rt_probe rt.slots (nk + 2) (hkey h) masks ks nk capm (h land capm)

(* Control-plane side: find the slot holding [vals] (premasked), or the
   slot where it should be inserted (first tombstone on the probe path,
   else the empty that ended it). *)
let rec rt_locate rt hk vals nk capm i tomb =
  let base = i * (nk + 2) in
  let hdr = Array.unsafe_get rt.slots base in
  if hdr = 0 then if tomb >= 0 then (tomb, false) else (i, false)
  else if hdr = hk && row_eq rt.slots base vals 0 nk then (i, true)
  else
    rt_locate rt hk vals nk capm
      ((i + 1) land capm)
      (if tomb < 0 && hdr = 1 then i else tomb)

let rec chain_add id = function
  | [] -> [ id ]
  | x :: _ as l when id < x -> id :: l
  | x :: rest -> x :: chain_add id rest

let rt_occupied hdr = hdr land 2 <> 0

let rec rt_grow rt nk =
  let ncap =
    let target = max 8 (rt.live * 3) in
    let rec pow2 c = if c >= target then c else pow2 (c * 2) in
    pow2 8
  in
  let stride = nk + 2 in
  let oslots = rt.slots and ochains = rt.chains and ocap = rt.cap in
  rt.cap <- ncap;
  rt.slots <- Array.make (ncap * stride) 0;
  rt.chains <- Array.make ncap [];
  rt.fill <- rt.live;
  let capm = ncap - 1 in
  for i = 0 to ocap - 1 do
    let obase = i * stride in
    if rt_occupied oslots.(obase) then begin
      let j = ref (hash_slot oslots obase 0 nk 0 land capm) in
      while rt.slots.(!j * stride) <> 0 do
        j := (!j + 1) land capm
      done;
      Array.blit oslots obase rt.slots (!j * stride) stride;
      rt.chains.(!j) <- ochains.(i)
    end
  done

and rt_insert rt vals nk id =
  if (rt.fill + 1) * 2 > rt.cap then rt_grow rt nk;
  let capm = rt.cap - 1 in
  let h = hash_vals vals 0 nk 0 in
  let i, found = rt_locate rt (hkey h) vals nk capm (h land capm) (-1) in
  let base = i * (nk + 2) in
  if found then begin
    let chain = chain_add id rt.chains.(i) in
    rt.chains.(i) <- chain;
    rt.slots.(base + 1) <- (match chain with x :: _ -> x | [] -> id)
  end
  else begin
    if rt.slots.(base) = 0 then rt.fill <- rt.fill + 1;
    rt.slots.(base) <- hkey h;
    rt.slots.(base + 1) <- id;
    Array.blit vals 0 rt.slots (base + 2) nk;
    rt.chains.(i) <- [ id ];
    rt.live <- rt.live + 1
  end

(* True when [id] was on the row's chain. *)
let rt_remove rt vals nk id =
  let capm = rt.cap - 1 in
  let h = hash_vals vals 0 nk 0 in
  let i, found = rt_locate rt (hkey h) vals nk capm (h land capm) (-1) in
  found
  && List.mem id rt.chains.(i)
  &&
  let base = i * (nk + 2) in
  let chain = List.filter (fun x -> x <> id) rt.chains.(i) in
  rt.chains.(i) <- chain;
  (match chain with
  | [] ->
      rt.slots.(base) <- 1;
      rt.live <- rt.live - 1
  | x :: _ -> rt.slots.(base + 1) <- x);
  true

(* ------------------------------------------------------------------ *)
(* Buckets and the classifier                                          *)
(* ------------------------------------------------------------------ *)

type bucket = {
  b_prio : int;
  b_spec : int;
  b_masks : int array;  (* per key word *)
  b_tbl : rowtbl;
  mutable b_count : int;
}

type t = {
  c_kws : int array;
  nk : int;
  nw : int;  (* key words: one per key, two per key wider than 62 bits *)
  degrade : bool;
  scratch : int array;  (* nw lookup key words *)
  mutable buckets : bucket array;
  mutable nb : int;
  mutable nlive : int;
}

let create ~kws ~degrade =
  if Array.exists (fun w -> w < 1 || w > 64) kws then
    invalid_arg "Classifier.create: key widths must be 1..64";
  let nk = Array.length kws in
  let nw = Array.fold_left (fun n w -> if w > 62 then n + 2 else n + 1) 0 kws in
  {
    c_kws = Array.copy kws;
    nk;
    nw;
    degrade;
    scratch = Array.make (max 1 nw) 0;
    buckets = [||];
    nb = 0;
    nlive = 0;
  }

let size t = t.nlive

(* ---------------- key words ---------------- *)

(* Store the bits [x] of a [w]-bit key from word [j] on and return the
   next word. A key wider than 62 bits does not fit OCaml's native int,
   so it takes two words: bits 63..32, then bits 31..0. *)
let put words w j x =
  if w <= 62 then begin
    Array.unsafe_set words j (Int64.to_int x);
    j + 1
  end
  else begin
    Array.unsafe_set words j (Int64.to_int (Int64.shift_right_logical x 32));
    Array.unsafe_set words (j + 1) (Int64.to_int (Int64.logand x 0xffff_ffffL));
    j + 2
  end

(* The shape [Runtime.add] admits, checked there against the same widths:
   one key per declared width, every key value of its key's width,
   prefixes no longer than the key, ternary masks of the key's width. *)
let rec fits kws nk i = function
  | [] -> i = nk
  | mk :: rest ->
      i < nk
      && (let w = kws.(i) in
          match mk with
          | Entry.Exact_v v -> Value.width v = w
          | Entry.Lpm_v (v, len) -> Value.width v = w && len >= 0 && len <= w
          | Entry.Ternary_v (v, m) -> Value.width v = w && Value.width m = w)
      && fits kws nk (i + 1) rest

let ones n = if n >= 64 then -1L else Int64.pred (Int64.shift_left 1L n)

(* Bucket masks and masked values of an entry, word by word. Exact keys
   (and ternary keys under the degrade quirk) compare every bit, an LPM
   key its top [len] bits, a ternary key its mask's bits. *)
let classify t (e : Entry.t) =
  assert (fits t.c_kws t.nk 0 e.Entry.keys);
  let masks = Array.make (max 1 t.nw) 0 and vals = Array.make (max 1 t.nw) 0 in
  let rec go i j = function
    | [] -> ()
    | mk :: rest ->
        let w = t.c_kws.(i) in
        let m, v =
          match mk with
          | Entry.Exact_v v -> (-1L, Value.to_int64 v)
          | Entry.Ternary_v (v, _) when t.degrade -> (-1L, Value.to_int64 v)
          | Entry.Ternary_v (v, m) -> (Value.to_int64 m, Value.to_int64 v)
          | Entry.Lpm_v (v, len) ->
              (Int64.logand (ones w) (Int64.lognot (ones (w - len))), Value.to_int64 v)
        in
        ignore (put masks w j m);
        go (i + 1) (put vals w j (Int64.logand v m)) rest
  in
  go 0 0 e.Entry.keys;
  (masks, vals)

(* ---------------- updates ---------------- *)

let masks_eq a b nw =
  let rec go j = j >= nw || (a.(j) = b.(j) && go (j + 1)) in
  go 0

(* Buckets stay sorted by priority desc, specificity desc; order among
   equal (priority, specificity) is irrelevant (lookups take the minimum
   id across the whole level). *)
let find_bucket t prio spec masks =
  let rec go i =
    if i >= t.nb then -1
    else
      let b = t.buckets.(i) in
      if b.b_prio = prio && b.b_spec = spec && masks_eq b.b_masks masks t.nw then i
      else go (i + 1)
  in
  go 0

let add_bucket t prio spec masks =
  let b = { b_prio = prio; b_spec = spec; b_masks = masks; b_tbl = rt_create t.nw; b_count = 0 } in
  if t.nb = Array.length t.buckets then begin
    let nbuf = Array.make (max 8 (2 * t.nb)) b in
    Array.blit t.buckets 0 nbuf 0 t.nb;
    t.buckets <- nbuf
  end;
  let rec pos i =
    if i >= t.nb then i
    else
      let bi = t.buckets.(i) in
      if bi.b_prio < prio || (bi.b_prio = prio && bi.b_spec < spec) then i else pos (i + 1)
  in
  let p = pos 0 in
  Array.blit t.buckets p t.buckets (p + 1) (t.nb - p);
  t.buckets.(p) <- b;
  t.nb <- t.nb + 1;
  b

let insert t id (e : Entry.t) =
  let masks, vals = classify t e in
  let spec = Entry.specificity e in
  let b =
    match find_bucket t e.Entry.priority spec masks with
    | -1 -> add_bucket t e.Entry.priority spec masks
    | i -> t.buckets.(i)
  in
  rt_insert b.b_tbl vals t.nw id;
  b.b_count <- b.b_count + 1;
  t.nlive <- t.nlive + 1

let remove t id (e : Entry.t) =
  let masks, vals = classify t e in
  match find_bucket t e.Entry.priority (Entry.specificity e) masks with
  | -1 -> ()
  | i ->
      let b = t.buckets.(i) in
      if rt_remove b.b_tbl vals t.nw id then begin
        b.b_count <- b.b_count - 1;
        t.nlive <- t.nlive - 1;
        if b.b_count = 0 then begin
          Array.blit t.buckets (i + 1) t.buckets i (t.nb - i - 1);
          t.nb <- t.nb - 1
        end
      end

let clear t =
  t.nb <- 0;
  t.nlive <- 0

(* ---------------- lookup ---------------- *)

(* Probe one (priority, specificity) level to completion, carrying the
   best (= smallest) matching id; on a hit the level's answer is final. *)
let rec find_level t ks nw i lp ls best =
  if i >= t.nb then best
  else
    let b = Array.unsafe_get t.buckets i in
    if b.b_prio = lp && b.b_spec = ls then begin
      let id = rt_find b.b_tbl b.b_masks ks nw in
      let best = if id >= 0 && (best < 0 || id < best) then id else best in
      find_level t ks nw (i + 1) lp ls best
    end
    else if best >= 0 then best
    else find_from t ks nw i

and find_from t ks nw i =
  if i >= t.nb then -1
  else
    let b = Array.unsafe_get t.buckets i in
    find_level t ks nw i b.b_prio b.b_spec (-1)

let rec widths_ok kws nk i = function
  | [] -> i = nk
  | v :: rest -> i < nk && Value.width v = Array.unsafe_get kws i && widths_ok kws nk (i + 1) rest

let rec load_values kws scratch i j = function
  | [] -> ()
  | v :: rest ->
      load_values kws scratch (i + 1)
        (put scratch (Array.unsafe_get kws i) j (Value.to_int64 v))
        rest

let find_values t vs =
  if not (widths_ok t.c_kws t.nk 0 vs) then
    invalid_arg "Classifier.find_values: probe widths differ from the key widths";
  load_values t.c_kws t.scratch 0 0 vs;
  find_from t t.scratch t.nw 0

let rec load_raw kws scratch arr i j nk =
  if i < nk then
    load_raw kws scratch arr (i + 1)
      (put scratch (Array.unsafe_get kws i) j (Array.unsafe_get arr i))
      nk

let find_raw t arr =
  load_raw t.c_kws t.scratch arr 0 0 t.nk;
  find_from t t.scratch t.nw 0
