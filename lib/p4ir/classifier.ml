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
   used + tombstoned slots; growth triggers at load 1/2 (and rebuilds to
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

let rt_remove rt vals nk id =
  let capm = rt.cap - 1 in
  let h = hash_vals vals 0 nk 0 in
  let i, found = rt_locate rt (hkey h) vals nk capm (h land capm) (-1) in
  if found then begin
    let base = i * (nk + 2) in
    let chain = List.filter (fun x -> x <> id) rt.chains.(i) in
    rt.chains.(i) <- chain;
    match chain with
    | [] ->
        rt.slots.(base) <- 1;
        rt.live <- rt.live - 1
    | x :: _ -> rt.slots.(base + 1) <- x
  end

(* ------------------------------------------------------------------ *)
(* Buckets and the classifier                                          *)
(* ------------------------------------------------------------------ *)

type bucket = {
  b_prio : int;
  b_spec : int;
  b_masks : int array;  (* per key position; -1 = full compare *)
  b_tbl : rowtbl;
  mutable b_count : int;
}

type fast = { mutable buckets : bucket array; mutable nb : int }

type t = {
  c_kws : int array;
  nk : int;
  degrade : bool;
  resolve : int -> Entry.t;
  scratch : int array;  (* nk lookup key words *)
  perm_fallback : bool;  (* some key width beyond the native-int fast path *)
  mutable fast : fast option;  (* None = legacy-replica fallback mode *)
  mutable fb : (int * Entry.t) list;  (* fallback store, unordered *)
  mutable fb_asc : (int * Entry.t) list;  (* memo: fb sorted by id *)
  mutable fb_dirty : bool;
  mutable dead : (int * Entry.t) list;  (* unmatchable at these key widths *)
  mutable poison : int;  (* live entries that can raise (fallback only) *)
  mutable nlive : int;
  mutable rebuilds : int;
}

let create ~kws ~degrade ~resolve =
  let nk = Array.length kws in
  let perm = Array.exists (fun w -> w < 1 || w > 62) kws in
  {
    c_kws = Array.copy kws;
    nk;
    degrade;
    resolve;
    scratch = Array.make (max 1 nk) 0;
    perm_fallback = perm;
    fast = (if perm then None else Some { buckets = [||]; nb = 0 });
    fb = [];
    fb_asc = [];
    fb_dirty = false;
    dead = [];
    poison = 0;
    nlive = 0;
    rebuilds = 0;
  }

let size t = t.nlive

let rebuilds t = t.rebuilds

let is_fallback t = t.fast = None

(* ---------------- entry classification ---------------- *)

(* How one entry behaves against keys of the declared widths. [Poison]:
   contains an LPM whose evaluation can raise ([prefix_len] > key width at
   an evaluated position) — routed to the fallback replica so the raise is
   preserved. [Dead]: can never match (key arity mismatch, or a value with
   bits above the key width) — invisible to lookups at these widths, but
   kept on a side list so even width-inconsistent probes (which go through
   the replica) still see it. [Row]: premasked words per position plus the
   bucket coordinates. *)
type shape =
  | Poison
  | Dead
  | Row of int array * int array  (* masks, vals; spec = Entry.specificity *)

let kw_mask64 kw = Int64.sub (Int64.shift_left 1L kw) 1L  (* kw <= 62 here *)

(* Mirrors [Entry.keys_match]'s evaluation positions: keys beyond the
   shorter list are never evaluated, hence never raise. *)
let rec can_raise kws nk k = function
  | [] -> false
  | _ when k >= nk -> false
  | Entry.Lpm_v (_, len) :: rest -> (len > 0 && len > kws.(k)) || can_raise kws nk (k + 1) rest
  | (Entry.Exact_v _ | Entry.Ternary_v _) :: rest -> can_raise kws nk (k + 1) rest

let classify t (e : Entry.t) : shape =
  if can_raise t.c_kws t.nk 0 e.Entry.keys then Poison
  else if List.length e.Entry.keys <> t.nk then Dead
  else begin
    let masks = Array.make (max 1 t.nk) 0 and vals = Array.make (max 1 t.nk) 0 in
    let ok = ref true in
    List.iteri
      (fun i mk ->
        if !ok then begin
          let kw = t.c_kws.(i) in
          let range = kw_mask64 kw in
          let full_compare raw =
            (* exact semantics: full 64-bit equality against a key that
               only ever holds [kw] bits *)
            if Int64.unsigned_compare raw range > 0 then ok := false
            else begin
              masks.(i) <- -1;
              vals.(i) <- Int64.to_int raw
            end
          in
          match mk with
          | Entry.Exact_v v -> full_compare (Value.to_int64 v)
          | Entry.Ternary_v (v, _) when t.degrade -> full_compare (Value.to_int64 v)
          | Entry.Ternary_v (v, m) ->
              let m64 = Value.to_int64 m in
              let v64 = Int64.logand (Value.to_int64 v) m64 in
              (* key bits above kw are zero, so mask bits up there can only
                 match a zero value bit; a set value bit is unmatchable *)
              if Int64.unsigned_compare v64 range > 0 then ok := false
              else begin
                masks.(i) <- Int64.to_int (Int64.logand m64 range);
                vals.(i) <- Int64.to_int v64
              end
          | Entry.Lpm_v (v, len) ->
              if len = 0 then begin
                masks.(i) <- 0;
                vals.(i) <- 0
              end
              else begin
                (* len <= kw: Poison was excluded above *)
                let m = ((1 lsl len) - 1) lsl (kw - len) in
                masks.(i) <- m;
                vals.(i) <-
                  Int64.to_int
                    (Int64.logand (Int64.logand (Value.to_int64 v) range) (Int64.of_int m))
              end
        end)
      e.Entry.keys;
    if !ok then Row (masks, vals) else Dead
  end

(* ---------------- fast-structure maintenance ---------------- *)

let masks_eq a b nk =
  let rec go j = j >= nk || (a.(j) = b.(j) && go (j + 1)) in
  go 0

(* Buckets stay sorted by priority desc, specificity desc; order among
   equal (priority, specificity) is irrelevant (lookups take the minimum
   id across the whole level). *)
let find_bucket f prio spec masks nk =
  let rec go i =
    if i >= f.nb then -1
    else
      let b = f.buckets.(i) in
      if b.b_prio = prio && b.b_spec = spec && masks_eq b.b_masks masks nk then i else go (i + 1)
  in
  go 0

let add_bucket f prio spec masks nk =
  let b = { b_prio = prio; b_spec = spec; b_masks = masks; b_tbl = rt_create nk; b_count = 0 } in
  if f.nb = Array.length f.buckets then begin
    let nbuf = Array.make (max 8 (2 * f.nb)) b in
    Array.blit f.buckets 0 nbuf 0 f.nb;
    f.buckets <- nbuf
  end;
  let rec pos i =
    if i >= f.nb then i
    else
      let bi = f.buckets.(i) in
      if bi.b_prio < prio || (bi.b_prio = prio && bi.b_spec < spec) then i else pos (i + 1)
  in
  let p = pos 0 in
  Array.blit f.buckets p f.buckets (p + 1) (f.nb - p);
  f.buckets.(p) <- b;
  f.nb <- f.nb + 1;
  b

let drop_bucket f p =
  Array.blit f.buckets (p + 1) f.buckets p (f.nb - p - 1);
  f.nb <- f.nb - 1

let fast_insert t f id (e : Entry.t) masks vals =
  let spec = Entry.specificity e in
  let b =
    match find_bucket f e.Entry.priority spec masks t.nk with
    | -1 -> add_bucket f e.Entry.priority spec (Array.copy masks) t.nk
    | i -> f.buckets.(i)
  in
  rt_insert b.b_tbl vals t.nk id;
  b.b_count <- b.b_count + 1;
  t.nlive <- t.nlive + 1

let fast_remove t f id (e : Entry.t) masks vals =
  let spec = Entry.specificity e in
  match find_bucket f e.Entry.priority spec masks t.nk with
  | -1 -> ()
  | i ->
      let b = f.buckets.(i) in
      rt_remove b.b_tbl vals t.nk id;
      b.b_count <- b.b_count - 1;
      t.nlive <- t.nlive - 1;
      if b.b_count = 0 then drop_bucket f i

(* ---------------- mode transitions ---------------- *)

let fb_store t id e =
  t.fb <- (id, e) :: t.fb;
  t.fb_dirty <- true;
  t.nlive <- t.nlive + 1

(* Enumerate the fast structure back into an entry list (plus the dead
   side list, which width-inconsistent probes can still match) and switch
   to replica mode. A structural re-derivation: counted in [rebuilds]. *)
let flip_to_fallback t f =
  let acc = ref t.dead in
  for i = 0 to f.nb - 1 do
    let b = f.buckets.(i) in
    let rt = b.b_tbl in
    for s = 0 to rt.cap - 1 do
      if rt_occupied rt.slots.(s * (t.nk + 2)) then
        List.iter (fun id -> acc := (id, t.resolve id) :: !acc) rt.chains.(s)
    done
  done;
  t.fast <- None;
  t.fb <- !acc;
  t.fb_asc <- [];
  t.fb_dirty <- true;
  t.dead <- [];
  t.nlive <- List.length !acc;
  t.poison <- 0;
  t.rebuilds <- t.rebuilds + 1

(* Inverse transition, taken when the last raising entry is removed (never
   when the key widths themselves are out of range). *)
let rebuild_fast t =
  let f = { buckets = [||]; nb = 0 } in
  let items = t.fb in
  t.fast <- Some f;
  t.fb <- [];
  t.fb_asc <- [];
  t.fb_dirty <- false;
  t.dead <- [];
  t.nlive <- 0;
  t.poison <- 0;
  List.iter
    (fun (id, e) ->
      match classify t e with
      | Row (masks, vals) -> fast_insert t f id e masks vals
      | Dead -> t.dead <- (id, e) :: t.dead
      | Poison -> assert false)
    items;
  t.rebuilds <- t.rebuilds + 1

(* ---------------- updates ---------------- *)

let insert t id e =
  match t.fast with
  | Some f -> (
      match classify t e with
      | Row (masks, vals) -> fast_insert t f id e masks vals
      | Dead -> t.dead <- (id, e) :: t.dead
      | Poison ->
          flip_to_fallback t f;
          t.poison <- 1;
          fb_store t id e)
  | None ->
      if t.perm_fallback then fb_store t id e
      else (
        match classify t e with
        | Poison ->
            t.poison <- t.poison + 1;
            fb_store t id e
        | Row _ | Dead -> fb_store t id e)

let remove t id e =
  match t.fast with
  | Some f -> (
      match classify t e with
      | Row (masks, vals) -> fast_remove t f id e masks vals
      | Dead -> t.dead <- List.filter (fun (i, _) -> i <> id) t.dead
      | Poison -> () (* a raising entry can only live in fallback mode *))
  | None ->
      if List.exists (fun (i, _) -> i = id) t.fb then begin
        t.fb <- List.filter (fun (i, _) -> i <> id) t.fb;
        t.fb_dirty <- true;
        t.nlive <- t.nlive - 1;
        if not t.perm_fallback then begin
          (match classify t e with Poison -> t.poison <- t.poison - 1 | Row _ | Dead -> ());
          if t.poison = 0 then rebuild_fast t
        end
      end

let clear t =
  t.fb <- [];
  t.fb_asc <- [];
  t.fb_dirty <- false;
  t.dead <- [];
  t.poison <- 0;
  t.nlive <- 0;
  if not t.perm_fallback then begin
    match t.fast with
    | Some f -> f.nb <- 0
    | None -> t.fast <- Some { buckets = [||]; nb = 0 }
  end

(* ---------------- lookup ---------------- *)

(* Probe one (priority, specificity) level to completion, carrying the
   best (= smallest) matching id; on a hit the level's answer is final. *)
let rec find_level f ks nk i lp ls best =
  if i >= f.nb then best
  else
    let b = Array.unsafe_get f.buckets i in
    if b.b_prio = lp && b.b_spec = ls then begin
      let id = rt_find b.b_tbl b.b_masks ks nk in
      let best = if id >= 0 && (best < 0 || id < best) then id else best in
      find_level f ks nk (i + 1) lp ls best
    end
    else if best >= 0 then best
    else find_from f ks nk i

and find_from f ks nk i =
  if i >= f.nb then -1
  else
    let b = Array.unsafe_get f.buckets i in
    find_level f ks nk i b.b_prio b.b_spec (-1)

let find_fast f ks nk = find_from f ks nk 0

(* The legacy replica: [Entry.select]'s exact scan shape (same evaluation
   order, hence the same raise behaviour), over (id, entry) pairs. *)
let rec fb_improve dte vs best bp bs = function
  | [] -> best
  | (id, (e : Entry.t)) :: rest ->
      if
        Entry.matches ~degrade_ternary_to_exact:dte e vs
        && (e.Entry.priority > bp || (e.Entry.priority = bp && Entry.specificity e > bs))
      then fb_improve dte vs id e.Entry.priority (Entry.specificity e) rest
      else fb_improve dte vs best bp bs rest

let rec fb_first dte vs = function
  | [] -> -1
  | (id, (e : Entry.t)) :: rest ->
      if Entry.matches ~degrade_ternary_to_exact:dte e vs then
        fb_improve dte vs id e.Entry.priority (Entry.specificity e) rest
      else fb_first dte vs rest

let fb_entries t =
  if t.fb_dirty then begin
    t.fb_asc <- List.sort (fun (a, _) (b, _) -> compare a b) t.fb;
    t.fb_dirty <- false
  end;
  t.fb_asc

let find_fb t vs = fb_first t.degrade vs (fb_entries t)

let rec widths_ok kws nk i = function
  | [] -> i = nk
  | v :: rest -> i < nk && Value.width v = Array.unsafe_get kws i && widths_ok kws nk (i + 1) rest

let rec load_values scratch i = function
  | [] -> ()
  | v :: rest ->
      (* width <= 62, so the word fits a native int *)
      Array.unsafe_set scratch i (Int64.to_int (Value.to_int64 v));
      load_values scratch (i + 1) rest

let find_values t vs =
  match t.fast with
  | Some f ->
      if widths_ok t.c_kws t.nk 0 vs then begin
        load_values t.scratch 0 vs;
        find_fast f t.scratch t.nk
      end
      else begin
        (* inconsistent probe widths: only the replica is correct (values
           out of range for the declared widths become matchable) *)
        flip_to_fallback t f;
        find_fb t vs
      end
  | None -> find_fb t vs

let rec load_raw scratch arr i nk =
  if i < nk then begin
    Array.unsafe_set scratch i (Int64.to_int (Array.unsafe_get arr i));
    load_raw scratch arr (i + 1) nk
  end

let find_raw t arr =
  match t.fast with
  | Some f ->
      load_raw t.scratch arr 0 t.nk;
      find_fast f t.scratch t.nk
  | None -> find_fb t (List.init t.nk (fun i -> Value.make ~width:t.c_kws.(i) arr.(i)))
