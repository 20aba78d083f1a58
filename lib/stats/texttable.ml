type t = { headers : string list; mutable rows : string list list }

let create headers = { headers; rows = [] }

let add_row t cells = t.rows <- cells :: t.rows

let normalize ncols cells =
  let rec take n = function
    | _ when n = 0 -> []
    | [] -> List.init n (fun _ -> "")
    | c :: rest -> c :: take (n - 1) rest
  in
  take ncols cells

let render t =
  let ncols = List.length t.headers in
  let rows = List.rev_map (normalize ncols) t.rows in
  let widths = Array.make ncols 0 in
  List.iter
    (fun cells ->
      List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) cells)
    (t.headers :: rows);
  let buf = Buffer.create 256 in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        Buffer.add_string buf (if i = 0 then "| " else " | ");
        Buffer.add_string buf (pad c widths.(i)))
      (normalize ncols cells);
    Buffer.add_string buf " |\n"
  in
  let emit_sep () =
    Array.iter
      (fun w ->
        Buffer.add_char buf '+';
        Buffer.add_string buf (String.make (w + 2) '-'))
      widths;
    Buffer.add_string buf "+\n"
  in
  emit_sep ();
  emit_cells t.headers;
  emit_sep ();
  List.iter emit_cells rows;
  emit_sep ();
  Buffer.contents buf
