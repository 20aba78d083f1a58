(** Heavy-traffic soak: sustained multi-flow background traffic
    (DNS/HTTP-like header mixes rotating over routed prefixes) paced at
    millions of packets per virtual second through a deployed harness,
    with the generator/checker validation loop running concurrently, the
    {!Sampler} streaming every window and a {!Health} evaluator judging
    them.

    Deterministic from the seed on the virtual-time side (flow pool,
    pacing, ingress ports, validation vectors, health verdict); wall
    clock appears only in the report. *)

type cfg = {
  sk_budget : int;  (** background packets to inject *)
  sk_seed : int;
  sk_rate_mpps : float;  (** offered background rate, virtual Mpkt/s *)
  sk_window_ns : float;  (** sampling / health window, virtual ns *)
  sk_validations_per_window : int;  (** at least 1 *)
  sk_min_rate_mpps : float;  (** acceptance floor on the sustained rate *)
  sk_p99_ceiling_ns : float;  (** pipeline/latency_ns window-p99 bound *)
  sk_max_queue_depth : float;  (** rxq/depth bound *)
}

val default_cfg : cfg
(** 100k packets at 2 Mpkt/s offered, 100 us windows, one validation per
    window, 1 Mpkt/s floor. *)

val default_rules : cfg -> Health.rule list
(** verdict-drift still, checker-asserts still, fault-drops still,
    rx tail-drop rate 0, rxq depth bound, pipeline p99 ceiling, and an
    EWMA anomaly band on the tx/emitted rate. *)

val flow_pool : seed:int -> Bitutil.Bitstring.t array
(** 256 pre-rendered packets of the traffic mix (DNS query/response,
    HTTP SYN/ACK/request/payload over UDP/TCP/IPv4), destinations
    rotating over the basic_router prefixes. *)

type report = {
  so_program : string;
  so_packets : int;
  so_windows : int;
  so_validated : int;
  so_drift : int;
  so_virtual_s : float;
  so_rate_mpps : float;
  so_min_rate_mpps : float;
  so_wall_s : float;
  so_healthy : bool;
  so_firings : Health.firing list;
  so_mismatch_examples : string list;  (** first 5 drift descriptions *)
  so_health_json : string;
  so_jsonl : string;  (** empty when a custom sink consumed the lines *)
  so_prometheus : string;
}

val run :
  ?cfg:cfg ->
  ?health:Health.t ->
  ?sink:(string -> unit) ->
  ?on_window:(Sampler.window -> unit) ->
  Netdebug.Harness.t ->
  report
(** Drive the soak on an already-deployed harness. [health] overrides
    {!default_rules} (pass [health] to share the live evaluator with an
    HTTP endpoint). [sink] streams JSONL lines as they
    are produced instead of buffering them into the report. [on_window]
    runs after each window's sample+health evaluation — the serve loop
    polls its HTTP listener there.
    @raise Invalid_argument when the budget, rate or validations per
    window is not positive. *)

val rate_ok : report -> bool

val exit_ok : report -> bool
(** Healthy verdict {e and} sustained rate at or above the floor — the
    CLI exit-code gate. *)

val render : report -> string

val write_artifacts : report -> dir:string -> string list
(** Write [soak.jsonl], [health.json] and [metrics.prom] into [dir]
    (created with any missing parents); returns the paths.
    @raise Sys_error when [dir] cannot be created or a file written. *)
