(* Fixed pool of worker domains fed generations of work through one
   mutex/condition pair. The calling domain is always worker 0, so a
   jobs=1 pool is pure sequential execution with no domains spawned. *)

type t = {
  jobs : int;
  lock : Mutex.t;
  work : Condition.t;  (* workers: a new generation was posted *)
  idle : Condition.t;  (* coordinator: a worker finished its share *)
  mutable generation : int;
  mutable task : (int -> unit) option;
  mutable pending : int;  (* spawned workers still in the current generation *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable closing : bool;
  mutable domains : unit Domain.t list;
}

let attempt f index =
  try
    f index;
    None
  with e -> Some (e, Printexc.get_raw_backtrace ())

(* Worker w >= 1: wait for the generation counter to move, run its share,
   report back. Exceptions are stored (first wins) and re-raised by the
   coordinator, never swallowed. *)
let worker_loop t index =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while (not t.closing) && t.generation = !seen do
      Condition.wait t.work t.lock
    done;
    if t.closing then begin
      Mutex.unlock t.lock;
      running := false
    end
    else begin
      seen := t.generation;
      let f = match t.task with Some f -> f | None -> assert false in
      Mutex.unlock t.lock;
      let err = attempt f index in
      Mutex.lock t.lock;
      (match err with
      | Some _ when t.failure = None -> t.failure <- err
      | Some _ | None -> ());
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.idle;
      Mutex.unlock t.lock
    end
  done

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      generation = 0;
      task = None;
      pending = 0;
      failure = None;
      closing = false;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let close t =
  Mutex.lock t.lock;
  let ds = t.domains in
  t.closing <- true;
  t.domains <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join ds

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let run t f =
  if t.closing then invalid_arg "Par.Pool.run: pool is closed";
  if t.jobs = 1 then f 0
  else begin
    Mutex.lock t.lock;
    t.task <- Some f;
    t.failure <- None;
    t.pending <- t.jobs - 1;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    let own = attempt f 0 in
    Mutex.lock t.lock;
    while t.pending > 0 do
      Condition.wait t.idle t.lock
    done;
    let worker = t.failure in
    t.task <- None;
    t.failure <- None;
    Mutex.unlock t.lock;
    match (own, worker) with
    | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None, None -> ()
  end

let map_chunks t ?(chunk = 16) f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let chunk = max 1 chunk in
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    run t (fun w ->
        let rec grab () =
          let start = Atomic.fetch_and_add cursor chunk in
          if start < n then begin
            let stop = min n (start + chunk) in
            for i = start to stop - 1 do
              out.(i) <- Some (f ~worker:w i xs.(i))
            done;
            grab ()
          end
        in
        grab ());
    Array.map (function Some v -> v | None -> assert false) out
  end
