(* Flat, bounded span store. One record is ten scalar writes into parallel
   arrays — no closure, list or record allocation on the packet hot path.
   Strings (span names, annotations) are interned once and referenced by
   integer id thereafter. *)

type kind = Packet | Rx_queue | Parse | Stage | Deparse | Tx

let kind_tag = function
  | Packet -> 0
  | Rx_queue -> 1
  | Parse -> 2
  | Stage -> 3
  | Deparse -> 4
  | Tx -> 5

let kind_of_tag = function
  | 0 -> Packet
  | 1 -> Rx_queue
  | 2 -> Parse
  | 3 -> Stage
  | 4 -> Deparse
  | _ -> Tx

let kind_to_string = function
  | Packet -> "packet"
  | Rx_queue -> "rx_queue"
  | Parse -> "parse"
  | Stage -> "stage"
  | Deparse -> "deparse"
  | Tx -> "tx"

let flag_drop = 1

let flag_fault = 2

let no_note = -1

let no_parent = -1

type span = {
  sp_id : int;
  sp_parent : int;
  sp_packet : int;
  sp_kind : kind;
  sp_name : string;
  sp_start_ns : float;
  sp_end_ns : float;
  sp_bytes : int;
  sp_drop : bool;
  sp_fault : bool;
  sp_note : string option;
}

type t = {
  capacity : int;
  ids : int array;
  parents : int array;
  packets : int array;
  kinds : int array;
  names : int array;
  starts : float array;
  ends_ : float array;
  byts : int array;
  flgs : int array;
  notes : int array;
  mutable next : int;  (* next write slot *)
  mutable total : int; (* spans ever recorded *)
  intern_tbl : (string, int) Hashtbl.t;
  mutable intern_arr : string array;
  mutable n_interned : int;
  mutable sample_every : int; (* 0 = spans off; n >= 1 = 1-in-n packets *)
  mutable tick : int;
  mutable next_id : int;
}

let create ?(capacity = 8192) ?(sampling = 1) () =
  if capacity < 1 then invalid_arg "Span.create: capacity must be positive";
  {
    capacity;
    ids = Array.make capacity 0;
    parents = Array.make capacity no_parent;
    packets = Array.make capacity 0;
    kinds = Array.make capacity 0;
    names = Array.make capacity 0;
    starts = Array.make capacity 0.0;
    ends_ = Array.make capacity 0.0;
    byts = Array.make capacity 0;
    flgs = Array.make capacity 0;
    notes = Array.make capacity no_note;
    next = 0;
    total = 0;
    intern_tbl = Hashtbl.create 32;
    intern_arr = Array.make 32 "";
    n_interned = 0;
    sample_every = max 0 sampling;
    tick = 0;
    next_id = 0;
  }

let intern t s =
  match Hashtbl.find t.intern_tbl s with
  | id -> id
  | exception Not_found ->
      let id = t.n_interned in
      if id = Array.length t.intern_arr then begin
        let bigger = Array.make (2 * Array.length t.intern_arr) "" in
        Array.blit t.intern_arr 0 bigger 0 id;
        t.intern_arr <- bigger
      end;
      t.intern_arr.(id) <- s;
      t.n_interned <- id + 1;
      Hashtbl.add t.intern_tbl s id;
      id

let name_of t id = if id >= 0 && id < t.n_interned then t.intern_arr.(id) else ""

let set_sampling t n =
  t.sample_every <- max 0 n;
  t.tick <- 0

let sampling t = t.sample_every

let sample t =
  if t.sample_every <= 0 then false
  else begin
    let k = t.tick in
    t.tick <- k + 1;
    k mod t.sample_every = 0
  end

let next_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let issued t = t.next_id

(* Inlined into its callers here so that [add_offset]'s times reach the
   float arrays unboxed. [next] is always below [capacity], every array's
   length, so the writes skip their bounds checks. *)
let[@inline] record t ~id ~parent ~packet ~kind ~name ~t0 ~t1 ~bytes ~flags ~note =
  let i = t.next in
  Array.unsafe_set t.ids i id;
  Array.unsafe_set t.parents i parent;
  Array.unsafe_set t.packets i packet;
  Array.unsafe_set t.kinds i (kind_tag kind);
  Array.unsafe_set t.names i name;
  Array.unsafe_set t.starts i t0;
  Array.unsafe_set t.ends_ i t1;
  Array.unsafe_set t.byts i bytes;
  Array.unsafe_set t.flgs i flags;
  Array.unsafe_set t.notes i note;
  t.next <- (if i + 1 = t.capacity then 0 else i + 1);
  t.total <- t.total + 1

let add t ~parent ~packet ~kind ~name ~t0 ~t1 ~bytes ~flags ~note =
  let id = next_id t in
  record t ~id ~parent ~packet ~kind ~name ~t0 ~t1 ~bytes ~flags ~note;
  id

let add_offset t ~parent ~packet ~kind ~name ~origin ~offset ~duration ~bytes ~flags ~note =
  let id = next_id t in
  let t0 = origin +. offset in
  record t ~id ~parent ~packet ~kind ~name ~t0 ~t1:(t0 +. duration) ~bytes ~flags ~note;
  id

let count t = min t.total t.capacity

let dropped t = max 0 (t.total - t.capacity)

let capacity t = t.capacity

let materialize t i =
  {
    sp_id = t.ids.(i);
    sp_parent = t.parents.(i);
    sp_packet = t.packets.(i);
    sp_kind = kind_of_tag t.kinds.(i);
    sp_name = name_of t t.names.(i);
    sp_start_ns = t.starts.(i);
    sp_end_ns = t.ends_.(i);
    sp_bytes = t.byts.(i);
    sp_drop = t.flgs.(i) land flag_drop <> 0;
    sp_fault = t.flgs.(i) land flag_fault <> 0;
    sp_note = (if t.notes.(i) < 0 then None else Some (name_of t t.notes.(i)));
  }

let spans t =
  let n = count t in
  let start = if t.total <= t.capacity then 0 else t.next in
  List.init n (fun j -> materialize t ((start + j) mod t.capacity))

let iter t f =
  let n = count t in
  let start = if t.total <= t.capacity then 0 else t.next in
  for j = 0 to n - 1 do
    f (materialize t ((start + j) mod t.capacity))
  done

let spans_for_packet t id = List.filter (fun sp -> sp.sp_packet = id) (spans t)
