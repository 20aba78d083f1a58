module Json = Obs.Json

type role = Edge | Aggregation | Core | Leaf | Spine

type node = {
  n_id : int;
  n_name : string;
  n_role : role;
  n_ports : int;
  n_subnet : (int64 * int) option;
}

type link = {
  l_a : int;
  l_a_port : int;
  l_b : int;
  l_b_port : int;
  l_delay_ns : float;
  l_gbps : float;
}

type host = {
  h_id : int;
  h_name : string;
  h_node : int;
  h_port : int;
  h_ip : int64;
  h_mac : int64;
  h_delay_ns : float;
}

type t = {
  t_name : string;
  nodes : node array;
  links : link array;
  hosts : host array;
}

let role_name = function
  | Edge -> "edge"
  | Aggregation -> "aggregation"
  | Core -> "core"
  | Leaf -> "leaf"
  | Spine -> "spine"

let role_of_name = function
  | "edge" -> Ok Edge
  | "aggregation" -> Ok Aggregation
  | "core" -> Ok Core
  | "leaf" -> Ok Leaf
  | "spine" -> Ok Spine
  | s -> Error (Printf.sprintf "unknown role %S" s)

let ip a b c d =
  Int64.logor
    (Int64.shift_left (Int64.of_int (a land 0xff)) 24)
    (Int64.of_int (((b land 0xff) lsl 16) lor ((c land 0xff) lsl 8) lor (d land 0xff)))

let ip_string v =
  let b = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
  Printf.sprintf "%d.%d.%d.%d" ((b lsr 24) land 0xff) ((b lsr 16) land 0xff)
    ((b lsr 8) land 0xff) (b land 0xff)

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      try
        let p x =
          let v = int_of_string x in
          if v < 0 || v > 255 then failwith "octet" else v
        in
        Ok (ip (p a) (p b) (p c) (p d))
      with _ -> Error (Printf.sprintf "bad IPv4 %S" s))
  | _ -> Error (Printf.sprintf "bad IPv4 %S" s)

(* Deterministic MAC spaces: switches in 0a:50::, hosts in 0a:00:: with
   the IP in the low 32 bits — both derivable by every layer without a
   registry. *)
let node_mac id = Int64.add 0x0A_50_00_00_00_00L (Int64.of_int id)
let host_mac ip = Int64.logor 0x0A_00_00_00_00_00L ip

let default_link_delay = 500.0
let default_host_delay = 100.0

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let mk_host ~id ~name ~node ~port ~hip =
  {
    h_id = id;
    h_name = name;
    h_node = node;
    h_port = port;
    h_ip = hip;
    h_mac = host_mac hip;
    h_delay_ns = default_host_delay;
  }

let fat_tree k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg (Printf.sprintf "Topology.fat_tree: k must be even and >= 2, got %d" k);
  let h = k / 2 in
  let n_edge = k * h and n_agg = k * h in
  let edge p e = (p * h) + e in
  let agg p a = n_edge + (p * h) + a in
  let core a j = n_edge + n_agg + (a * h) + j in
  let nodes =
    Array.init
      (n_edge + n_agg + (h * h))
      (fun id ->
        if id < n_edge then
          let p = id / h and e = id mod h in
          {
            n_id = id;
            n_name = Printf.sprintf "edge-%d-%d" p e;
            n_role = Edge;
            n_ports = k;
            n_subnet = Some (ip 10 p e 0, 24);
          }
        else if id < n_edge + n_agg then
          let p = (id - n_edge) / h and a = (id - n_edge) mod h in
          {
            n_id = id;
            n_name = Printf.sprintf "agg-%d-%d" p a;
            n_role = Aggregation;
            n_ports = k;
            n_subnet = None;
          }
        else
          let c = id - n_edge - n_agg in
          let a = c / h and j = c mod h in
          {
            n_id = id;
            n_name = Printf.sprintf "core-%d-%d" a j;
            n_role = Core;
            n_ports = k;
            n_subnet = None;
          })
  in
  let links = ref [] in
  (* edge(p,e) uplink port h+a <-> agg(p,a) downlink port e *)
  for p = 0 to k - 1 do
    for e = 0 to h - 1 do
      for a = 0 to h - 1 do
        links :=
          {
            l_a = edge p e;
            l_a_port = h + a;
            l_b = agg p a;
            l_b_port = e;
            l_delay_ns = default_link_delay;
            l_gbps = 10.0;
          }
          :: !links
      done
    done
  done;
  (* agg(p,a) uplink port h+j <-> core(a,j) port p *)
  for p = 0 to k - 1 do
    for a = 0 to h - 1 do
      for j = 0 to h - 1 do
        links :=
          {
            l_a = agg p a;
            l_a_port = h + j;
            l_b = core a j;
            l_b_port = p;
            l_delay_ns = default_link_delay;
            l_gbps = 10.0;
          }
          :: !links
      done
    done
  done;
  let hosts = ref [] in
  let hid = ref 0 in
  for p = 0 to k - 1 do
    for e = 0 to h - 1 do
      for i = 0 to h - 1 do
        hosts :=
          mk_host ~id:!hid
            ~name:(Printf.sprintf "h-%d-%d-%d" p e i)
            ~node:(edge p e) ~port:i
            ~hip:(ip 10 p e (2 + i))
          :: !hosts;
        incr hid
      done
    done
  done;
  {
    t_name = Printf.sprintf "fat-tree:%d" k;
    nodes;
    links = Array.of_list (List.rev !links);
    hosts = Array.of_list (List.rev !hosts);
  }

let leaf_spine ?(link_delay_ns = default_link_delay) ?(hosts_per_leaf = 2) ~spines ~leaves
    () =
  if spines < 1 || leaves < 1 || hosts_per_leaf < 1 then
    invalid_arg "Topology.leaf_spine: spines, leaves and hosts_per_leaf must be >= 1";
  if leaves > 253 || hosts_per_leaf > 253 then
    invalid_arg "Topology.leaf_spine: at most 253 leaves and 253 hosts per leaf";
  let nodes =
    Array.init (leaves + spines) (fun id ->
        if id < leaves then
          {
            n_id = id;
            n_name = Printf.sprintf "leaf-%d" id;
            n_role = Leaf;
            n_ports = hosts_per_leaf + spines;
            n_subnet = Some (ip 10 id 0 0, 24);
          }
        else
          {
            n_id = id;
            n_name = Printf.sprintf "spine-%d" (id - leaves);
            n_role = Spine;
            n_ports = leaves;
            n_subnet = None;
          })
  in
  let links = ref [] in
  for l = 0 to leaves - 1 do
    for s = 0 to spines - 1 do
      links :=
        {
          l_a = l;
          l_a_port = hosts_per_leaf + s;
          l_b = leaves + s;
          l_b_port = l;
          l_delay_ns = link_delay_ns;
          l_gbps = 40.0;
        }
        :: !links
    done
  done;
  let hosts = ref [] in
  for l = 0 to leaves - 1 do
    for i = 0 to hosts_per_leaf - 1 do
      hosts :=
        mk_host
          ~id:((l * hosts_per_leaf) + i)
          ~name:(Printf.sprintf "h-%d-%d" l i)
          ~node:l ~port:i
          ~hip:(ip 10 l 0 (2 + i))
        :: !hosts
    done
  done;
  {
    t_name = Printf.sprintf "leaf-spine:%dx%d" spines leaves;
    nodes;
    links = Array.of_list (List.rev !links);
    hosts = Array.of_list (List.rev !hosts);
  }

let single ~hosts () =
  if hosts < 1 || hosts > 253 then invalid_arg "Topology.single: 1 <= hosts <= 253";
  {
    t_name = "single";
    nodes =
      [|
        {
          n_id = 0;
          n_name = "sw-0";
          n_role = Edge;
          n_ports = hosts;
          n_subnet = Some (ip 10 0 0 0, 24);
        };
      |];
    links = [||];
    hosts =
      Array.init hosts (fun i ->
          mk_host ~id:i
            ~name:(Printf.sprintf "h-0-%d" i)
            ~node:0 ~port:i
            ~hip:(ip 10 0 0 (2 + i)));
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let node_named t name = Array.to_seq t.nodes |> Seq.find (fun n -> n.n_name = name)

let edges t =
  Array.to_list t.nodes |> List.filter (fun n -> n.n_subnet <> None)

let max_ports t = Array.fold_left (fun acc n -> max acc n.n_ports) 1 t.nodes

let in_subnet hip (prefix, len) =
  let mask =
    if len <= 0 then 0L else Int64.shift_left (-1L) (32 - len) |> Int64.logand 0xFFFFFFFFL
  in
  Int64.logand hip mask = Int64.logand prefix mask

let validate t =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n = Array.length t.nodes in
  let* () =
    Array.to_list t.nodes
    |> List.mapi (fun i nd -> (i, nd))
    |> List.fold_left
         (fun acc (i, nd) ->
           let* () = acc in
           if nd.n_id <> i then err "node %s: id %d at index %d" nd.n_name nd.n_id i
           else if nd.n_ports < 1 then err "node %s: no ports" nd.n_name
           else Ok ())
         (Ok ())
  in
  let seen = Hashtbl.create 64 in
  let claim node port what =
    if node < 0 || node >= n then err "%s: no node %d" what node
    else if port < 0 || port >= t.nodes.(node).n_ports then
      err "%s: node %s has no port %d" what t.nodes.(node).n_name port
    else
      match Hashtbl.find_opt seen (node, port) with
      | Some prev -> err "%s: port %d of %s already used by %s" what port t.nodes.(node).n_name prev
      | None ->
          Hashtbl.replace seen (node, port) what;
          Ok ()
  in
  let* () =
    Array.to_list t.links
    |> List.fold_left
         (fun acc l ->
           let* () = acc in
           let what = Printf.sprintf "link %d.%d-%d.%d" l.l_a l.l_a_port l.l_b l.l_b_port in
           if l.l_a = l.l_b then err "%s: self-link" what
           else if l.l_delay_ns < 0.0 then err "%s: negative delay" what
           else
             let* () = claim l.l_a l.l_a_port what in
             claim l.l_b l.l_b_port what)
         (Ok ())
  in
  Array.to_list t.hosts
  |> List.mapi (fun i h -> (i, h))
  |> List.fold_left
       (fun acc (i, h) ->
         let* () = acc in
         if h.h_id <> i then err "host %s: id %d at index %d" h.h_name h.h_id i
         else
           let* () = claim h.h_node h.h_port ("host " ^ h.h_name) in
           match t.nodes.(h.h_node).n_subnet with
           | None -> err "host %s: node %s terminates no subnet" h.h_name t.nodes.(h.h_node).n_name
           | Some subnet ->
               if in_subnet h.h_ip subnet then Ok ()
               else
                 err "host %s: ip %s outside %s's subnet" h.h_name (ip_string h.h_ip)
                   t.nodes.(h.h_node).n_name)
       (Ok ())

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json t =
  let open Json in
  let node nd =
    Obj
      ([
         ("id", Num (float_of_int nd.n_id));
         ("name", Str nd.n_name);
         ("role", Str (role_name nd.n_role));
         ("ports", Num (float_of_int nd.n_ports));
       ]
      @
      match nd.n_subnet with
      | None -> []
      | Some (p, len) ->
          [ ("subnet", Str (Printf.sprintf "%s/%d" (ip_string p) len)) ])
  in
  let link l =
    Obj
      [
        ("a", Num (float_of_int l.l_a));
        ("a_port", Num (float_of_int l.l_a_port));
        ("b", Num (float_of_int l.l_b));
        ("b_port", Num (float_of_int l.l_b_port));
        ("delay_ns", Num l.l_delay_ns);
        ("gbps", Num l.l_gbps);
      ]
  in
  let host h =
    Obj
      [
        ("id", Num (float_of_int h.h_id));
        ("name", Str h.h_name);
        ("node", Num (float_of_int h.h_node));
        ("port", Num (float_of_int h.h_port));
        ("ip", Str (ip_string h.h_ip));
        ("mac", Num (Int64.to_float h.h_mac));
        ("delay_ns", Num h.h_delay_ns);
      ]
  in
  Obj
    [
      ("name", Str t.t_name);
      ("nodes", Arr (Array.to_list t.nodes |> List.map node));
      ("links", Arr (Array.to_list t.links |> List.map link));
      ("hosts", Arr (Array.to_list t.hosts |> List.map host));
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field name conv what j =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> err "topology JSON: %s needs %S" what name
  in
  let num name what j = field name Json.to_float what j in
  let int name what j =
    let* v = num name what j in
    Ok (int_of_float v)
  in
  let str name what j = field name Json.to_str what j in
  let map_all f l =
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* v = f x in
        Ok (v :: acc))
      (Ok []) l
    |> Result.map List.rev
  in
  let parse_subnet s =
    match String.index_opt s '/' with
    | None -> err "bad subnet %S" s
    | Some i -> (
        let* p = ip_of_string (String.sub s 0 i) in
        try Ok (p, int_of_string (String.sub s (i + 1) (String.length s - i - 1)))
        with _ -> err "bad subnet %S" s)
  in
  let node j =
    let* id = int "id" "node" j in
    let* name = str "name" "node" j in
    let* role = Result.bind (str "role" "node" j) role_of_name in
    let* ports = int "ports" "node" j in
    let* subnet =
      match Json.member "subnet" j with
      | None | Some Json.Null -> Ok None
      | Some (Json.Str s) -> Result.map Option.some (parse_subnet s)
      | Some _ -> err "node %s: subnet must be a string" name
    in
    Ok { n_id = id; n_name = name; n_role = role; n_ports = ports; n_subnet = subnet }
  in
  let link j =
    let* a = int "a" "link" j in
    let* a_port = int "a_port" "link" j in
    let* b = int "b" "link" j in
    let* b_port = int "b_port" "link" j in
    let* delay = num "delay_ns" "link" j in
    let* gbps = num "gbps" "link" j in
    Ok
      {
        l_a = a;
        l_a_port = a_port;
        l_b = b;
        l_b_port = b_port;
        l_delay_ns = delay;
        l_gbps = gbps;
      }
  in
  let host j =
    let* id = int "id" "host" j in
    let* name = str "name" "host" j in
    let* node = int "node" "host" j in
    let* port = int "port" "host" j in
    let* hip = Result.bind (str "ip" "host" j) ip_of_string in
    let* mac = num "mac" "host" j in
    let* delay = num "delay_ns" "host" j in
    Ok
      {
        h_id = id;
        h_name = name;
        h_node = node;
        h_port = port;
        h_ip = hip;
        h_mac = Int64.of_float mac;
        h_delay_ns = delay;
      }
  in
  let arr name =
    match Option.bind (Json.member name j) Json.to_list with
    | Some l -> Ok l
    | None -> err "topology JSON: missing %S array" name
  in
  let* name = str "name" "topology" j in
  let* nodes = Result.bind (arr "nodes") (map_all node) in
  let* links = Result.bind (arr "links") (map_all link) in
  let* hosts = Result.bind (arr "hosts") (map_all host) in
  let t =
    {
      t_name = name;
      nodes = Array.of_list nodes;
      links = Array.of_list links;
      hosts = Array.of_list hosts;
    }
  in
  let* () = validate t in
  Ok t

let to_file t path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

let of_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s -> Result.bind (Json.of_string (String.trim s)) of_json

let summary t =
  Printf.sprintf "%s: %d devices, %d links, %d hosts" t.t_name (Array.length t.nodes)
    (Array.length t.links) (Array.length t.hosts)
