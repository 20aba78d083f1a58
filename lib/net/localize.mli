(** Device-within-network fault localization: find {e which device} of a
    fabric is eating traffic, then hand that device to the single-device
    stage localizer for the {e which stage} verdict.

    The procedure mirrors the paper's stage-level algorithm one level
    up. Inject a burst of identical probes at a source edge host and
    check for them at the far edge. If some never arrive, bisect along
    the path {!Route.route} says they must take, using each device's
    ingress counters and span trail (sampling forced to every-packet for
    the burst) as the "did the burst reach this device?" predicate: the
    counters are monotone along the path — every device up to the fault
    saw the full burst, every device past it saw none — so a binary
    search names the last device that received the burst. That device is
    then interrogated in place with {!Netdebug.Localize.locate} (over
    its own management protocol, generator and checker), which names the
    faulty stage — or declares the device healthy in isolation, which
    indicts the link towards its successor instead. *)

type verdict =
  | Healthy  (** the full burst was delivered to the destination host *)
  | No_route  (** the routing layer has no path between these edges *)
  | Device_fault of {
      f_device : string;  (** the localized device *)
      f_verdict : Netdebug.Localize.verdict;  (** its stage-level verdict *)
      f_evidence : Netdebug.Localize.evidence;
    }
  | Link_suspect of { after : string }
      (** this device received and (in isolation) forwards the burst
          correctly, yet its successor never saw it *)

type evidence = {
  n_path : string list;  (** expected device trail, source edge first *)
  n_rx_deltas : (string * int64) list;
      (** per path device: ingress packets counted during the burst *)
  n_span_counts : (string * int) list;
      (** per path device: packet spans recorded during the burst —
          per-hop-timed corroboration of the counters *)
  n_count : int;  (** probes sent *)
  n_delivered : int;  (** probes that reached the destination host *)
  n_bisect_probes : int;
      (** devices whose evidence the bisection actually examined *)
}

val locate :
  ?count:int ->
  Fabric.t ->
  src:Topology.host ->
  dst:Topology.host ->
  verdict * evidence
(** Send [count] (default 16) probes from [src] towards [dst] and
    localize any loss. Probes use the same construction as {!Fleet}, so
    a fleet-reported failing pair can be re-run here verbatim. Span
    sampling on path devices is forced to every-packet for the burst and
    restored afterwards. *)

val verdict_to_string : verdict -> string
