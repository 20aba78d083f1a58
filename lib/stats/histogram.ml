(* Log-binned histogram: bin i covers [base^(i-1), base^i). Values below 1.0
   land in bin 0. base is chosen so relative bin error stays within ~5%.

   Only the span of bins that has been populated is stored: [bins.(k)]
   counts bin [lo + k], every bin outside the span is zero. A latency
   distribution occupies a few dozen of the 1024 bins, so copies and
   window deltas stay small minor-heap blocks; a dense 1024-bin array is
   over the minor heap's block-size limit and would be allocated in the
   major heap on every copy. *)

let base = 1.05

let log_base = log base

let nbins = 1024

(* The float accumulators sit in an all-float record, which OCaml stores
   flat, so updating them allocates nothing; a float field of a mixed
   record would box a fresh float on every [add]. *)
type acc = {
  mutable sum : float;
  mutable sumsq : float;
  mutable minv : float;
  mutable maxv : float;
}

type t = {
  mutable lo : int;
  mutable bins : int array;
  mutable n : int;
  acc : acc;
}

let create () =
  { lo = 0; bins = [||]; n = 0; acc = { sum = 0.; sumsq = 0.; minv = infinity; maxv = 0. } }

(* Stdlib.min/max semantics, without the polymorphic compare *)
let fmin (a : float) b = if a <= b then a else b

let fmax (a : float) b = if a >= b then a else b

let bin_of v =
  if v < 1.0 then 0
  else
    let i = 1 + int_of_float (log v /. log_base) in
    if i < nbins - 1 then i else nbins - 1

let upper_of i = if i = 0 then 1.0 else base ** float_of_int i

(* count of bin [i], zero outside the stored span *)
let bin t i =
  let k = i - t.lo in
  if k >= 0 && k < Array.length t.bins then t.bins.(k) else 0

(* widen the stored span to cover bins [lo, hi] *)
let cover t lo hi =
  let len = Array.length t.bins in
  if len = 0 then begin
    t.lo <- lo;
    t.bins <- Array.make (hi - lo + 1) 0
  end
  else if lo < t.lo || hi >= t.lo + len then begin
    let lo' = if lo < t.lo then lo else t.lo in
    let hi' = if hi >= t.lo + len then hi else t.lo + len - 1 in
    let bins = Array.make (hi' - lo' + 1) 0 in
    Array.blit t.bins 0 bins (t.lo - lo') len;
    t.lo <- lo';
    t.bins <- bins
  end

let add t v =
  let v = if v < 0. then 0. else v in
  let i = bin_of v in
  cover t i i;
  let k = i - t.lo in
  t.bins.(k) <- t.bins.(k) + 1;
  t.n <- t.n + 1;
  let a = t.acc in
  a.sum <- a.sum +. v;
  a.sumsq <- a.sumsq +. (v *. v);
  if v < a.minv then a.minv <- v;
  if v > a.maxv then a.maxv <- v

let count t = t.n

let total t = t.acc.sum

let mean t = if t.n = 0 then 0. else t.acc.sum /. float_of_int t.n

(* minv starts at +inf as the fold identity; never leak it to callers *)
let min_value t = if t.n = 0 then 0. else t.acc.minv

let max_value t = t.acc.maxv

let stddev t =
  if t.n < 2 then 0.
  else
    let m = mean t in
    let var = (t.acc.sumsq /. float_of_int t.n) -. (m *. m) in
    if var < 0. then 0. else sqrt var

let percentile t p =
  (* guard before touching maxv: on an empty histogram maxv is still the
     0. fold identity and must not masquerade as a measured quantile *)
  if t.n = 0 then 0.
  else begin
    let rank = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
    let rank = max 1 (min t.n rank) in
    let len = Array.length t.bins in
    let rec go k seen =
      if k >= len then t.acc.maxv
      else
        let seen = seen + t.bins.(k) in
        if seen >= rank then fmin t.acc.maxv (upper_of (t.lo + k)) else go (k + 1) seen
    in
    go 0 0
  end

let absorb a b =
  let len = Array.length b.bins in
  if len > 0 then begin
    cover a b.lo (b.lo + len - 1);
    let off = b.lo - a.lo in
    for k = 0 to len - 1 do
      a.bins.(off + k) <- a.bins.(off + k) + b.bins.(k)
    done
  end;
  a.n <- a.n + b.n;
  a.acc.sum <- a.acc.sum +. b.acc.sum;
  a.acc.sumsq <- a.acc.sumsq +. b.acc.sumsq;
  a.acc.minv <- fmin a.acc.minv b.acc.minv;
  a.acc.maxv <- fmax a.acc.maxv b.acc.maxv

let copy t =
  {
    lo = t.lo;
    bins = Array.copy t.bins;
    n = t.n;
    acc = { sum = t.acc.sum; sumsq = t.acc.sumsq; minv = t.acc.minv; maxv = t.acc.maxv };
  }

let merge a b =
  let t = copy a in
  absorb t b;
  t

let delta ~since cur =
  let t = create () in
  let d k =
    let v = cur.bins.(k) - bin since (cur.lo + k) in
    if v < 0 then 0 else v
  in
  (* the window's populated span: bins outside [cur]'s span are zero in
     [cur], so their clamped deltas are too *)
  let len = Array.length cur.bins in
  let rec first k = if k < len && d k = 0 then first (k + 1) else k in
  let rec last k = if d k = 0 then last (k - 1) else k in
  let first = first 0 in
  if first < len then begin
    let last = last (len - 1) in
    t.lo <- cur.lo + first;
    t.bins <- Array.init (last - first + 1) (fun j -> d (first + j))
  end;
  t.n <- max 0 (cur.n - since.n);
  t.acc.sum <- cur.acc.sum -. since.acc.sum;
  t.acc.sumsq <- cur.acc.sumsq -. since.acc.sumsq;
  let len = Array.length t.bins in
  if t.n > 0 && len > 0 then begin
    (* the cumulative min/max do not say which window an extreme landed in,
       so bound the window extremes by its populated bins instead *)
    t.acc.minv <- (if t.lo = 0 then 0. else upper_of (t.lo - 1));
    t.acc.maxv <- fmin cur.acc.maxv (upper_of (t.lo + len - 1))
  end;
  t

let clear t =
  Array.fill t.bins 0 (Array.length t.bins) 0;
  t.n <- 0;
  t.acc.sum <- 0.;
  t.acc.sumsq <- 0.;
  t.acc.minv <- infinity;
  t.acc.maxv <- 0.
