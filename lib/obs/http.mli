(** Dependency-free HTTP/1.0 endpoint over Unix sockets, serving live
    Prometheus text exposition and the JSON health document from a
    running soak/serve loop.

    Single-threaded and poll-driven: the owning loop calls {!poll}
    between sampling windows. Each poll accepts and answers every
    connection already pending, and returns immediately when none are. *)

type t

type route

val route : content_type:string -> (unit -> string) -> route
(** Body closures are evaluated per request, so responses reflect live
    state. An exception inside one becomes a 500. *)

val create : ?host:string -> ?port:int -> (string * route) list -> t
(** Bind and listen on [host] (default 127.0.0.1) : [port]. Port 0
    (the default) picks an ephemeral port — read it back with {!port}.
    The association list maps exact paths (["/metrics"]) to routes;
    query strings are stripped before matching, unknown paths get a 404
    listing the routes, non-GET methods a 405.
    @raise Invalid_argument when [port] is not in [\[0, 65535\]]. *)

val port : t -> int

val poll : t -> int
(** Serve every pending connection (up to 32) without blocking; returns
    the number served. *)

val served : t -> int
(** Total requests answered since creation. *)

val close : t -> unit
(** Close the listening socket; subsequent polls return 0. *)
