(* The value is an immediate [int], not an [int64]: a mutable int64 field
   is a pointer to a boxed block, so every [incr] on the hot path would
   allocate a fresh one. 63 bits outlast any run; the int64 API converts
   at the edges. *)
type t = { mutable value : int }

let create () = { value = 0 }

let incr t = t.value <- t.value + 1

let add t n = t.value <- t.value + Int64.to_int n

let get t = Int64.of_int t.value

let reset t = t.value <- 0

module Set = struct
  type counter = t

  type nonrec t = (string, counter) Hashtbl.t

  let create () = Hashtbl.create 16

  let find set n =
    match Hashtbl.find_opt set n with
    | Some c -> c
    | None ->
        let c = { value = 0 } in
        Hashtbl.add set n c;
        c

  let get set n = match Hashtbl.find_opt set n with Some c -> Int64.of_int c.value | None -> 0L

  let incr set n =
    let c = find set n in
    c.value <- c.value + 1

  let add set n v =
    let c = find set n in
    c.value <- c.value + Int64.to_int v

  let reset_all set = Hashtbl.iter (fun _ c -> c.value <- 0) set

  let to_alist set =
    Hashtbl.fold (fun n c acc -> (n, Int64.of_int c.value) :: acc) set []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end
