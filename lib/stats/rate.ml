type t = {
  mutable packets : int;
  mutable bytes : int;
  mutable first_bytes : int;
  mutable first_ns : float;
  mutable last_ns : float;
}

let create () = { packets = 0; bytes = 0; first_bytes = 0; first_ns = nan; last_ns = nan }

let record t ~now_ns ~bytes =
  if t.packets = 0 then begin
    t.first_ns <- now_ns;
    t.first_bytes <- bytes
  end;
  t.last_ns <- now_ns;
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + bytes

let packets t = t.packets

let duration_ns t = if t.packets < 2 then 0. else t.last_ns -. t.first_ns

let packets_per_sec t =
  let d = duration_ns t in
  if d <= 0. then 0. else float_of_int (t.packets - 1) /. d *. 1e9

(* The first observation opens the measurement window, so its bytes are not
   part of what flowed *during* the window — mirroring how hardware rate
   registers count over (n-1) inter-arrival gaps. *)
let bits_per_sec t =
  let d = duration_ns t in
  if d <= 0. then 0. else float_of_int ((t.bytes - t.first_bytes) * 8) /. d *. 1e9

let gbps t = bits_per_sec t /. 1e9

let clear t =
  t.packets <- 0;
  t.bytes <- 0;
  t.first_bytes <- 0;
  t.first_ns <- nan;
  t.last_ns <- nan
