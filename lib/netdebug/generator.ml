module Ast = P4ir.Ast
module Compilecore = P4ir.Compilecore
module Device = Target.Device
module Prng = Bitutil.Prng

type t = {
  program : Ast.program;
  device : Device.t;
  mutable streams : Wire.stream list;
  plain : Compilecore.inst Lazy.t;  (* no checksum refresh *)
  refresh : Compilecore.inst Lazy.t;  (* checksum refresh *)
  c_sent : Stats.Counter.t;  (* cumulative, in the device registry *)
}

(* The render core for mutated templates: parse and deparse compiled once
   per generator and checksum setting (lazily: a generator that never
   renders pays no compile), into reused scratch, so a render allocates
   only the final wire copy. *)
let staged program ~refresh =
  lazy
    (Compilecore.instantiate
       (Compilecore.compile ~parse_hooks:P4ir.Parse.lenient_hooks ~update_ipv4_checksum:refresh
          program)
       ~runtime:(P4ir.Runtime.create ()))

let create ~program device =
  {
    program;
    device;
    streams = [];
    plain = staged program ~refresh:false;
    refresh = staged program ~refresh:true;
    c_sent =
      Telemetry.Registry.counter (Device.metrics device)
        ~help:"test packets the internal generator injected" "generator/sent";
  }

let configure t streams = t.streams <- streams

let clear t = t.streams <- []

let mutation_targets_checksum muts =
  List.exists
    (fun m ->
      match (m : Wire.mutation) with
      | Wire.Set_field (h, f, _) | Wire.Sweep_field (h, f, _, _) | Wire.Random_field (h, f, _)
        ->
          String.equal h "ipv4" && String.equal f "checksum")
    muts

(* An unmutated template is injected as given (deliberately corrupted
   test packets included); only a mutated one is rendered, refreshing the
   checksum its mutations dirtied unless one of them targets it. *)
let render_packet t (stream : Wire.stream) prng index =
  match stream.Wire.s_mutations with
  | [] -> stream.Wire.s_template
  | muts ->
      let refresh =
        t.program.Ast.p_update_ipv4_checksum && not (mutation_targets_checksum muts)
      in
      let inst = Lazy.force (if refresh then t.refresh else t.plain) in
      Compilecore.reset inst;
      Compilecore.run_parser inst stream.Wire.s_template;
      List.iter
        (fun m ->
          match (m : Wire.mutation) with
          | Wire.Set_field (h, f, v) -> Compilecore.mutate_field inst h f (fun _ -> v)
          | Wire.Sweep_field (h, f, start, step) ->
              Compilecore.mutate_field inst h f (fun _ ->
                  Int64.add start (Int64.mul step (Int64.of_int index)))
          | Wire.Random_field (h, f, _) ->
              Compilecore.mutate_field inst h f (fun width -> Prng.bits prng ~width))
        muts;
      Compilecore.deparse inst

let inject t ?at_ns bits =
  let _, disposition = Device.inject t.device ~source:Device.Generator ?at_ns bits in
  Stats.Counter.incr t.c_sent;
  disposition

(* The single-packet shot behind every validation check: [bits] as
   given, injected back-to-back. Quiescing is the caller's, one per
   batch (see [Target.Device.inject_batch] and [Fuzz.Oracle]). *)
let send_raw t bits = inject t bits

let start t =
  let base = Device.now_ns t.device in
  let scheduled =
    List.concat_map
      (fun (stream : Wire.stream) ->
        let prng =
          Prng.create
            (List.fold_left
               (fun acc m ->
                 match (m : Wire.mutation) with Wire.Random_field (_, _, s) -> acc + s | _ -> acc)
               0x9E37 stream.Wire.s_mutations)
        in
        List.init stream.Wire.s_count (fun i ->
            let at = base +. (float_of_int i *. stream.Wire.s_interval_ns) in
            (at, render_packet t stream prng i)))
      t.streams
  in
  let ordered = List.stable_sort (fun (a, _) (b, _) -> compare a b) scheduled in
  List.iter (fun (at, bits) -> ignore (inject t ~at_ns:at bits)) ordered
