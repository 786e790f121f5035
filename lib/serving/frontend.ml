(** Concurrent serving front-end (see frontend.mli). *)

type outcome = Server.outcome =
  | Response of Server.response
  | Overloaded
  | Deadline_exceeded of string
  | Error of { exn : string; backtrace : string }

let outcome_label = function
  | Response _ -> "response"
  | Overloaded -> "overloaded"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Error _ -> "error"

type ticket = {
  tk_id : int;  (** the request id: spans carry it as trace context *)
  mutable outcome : outcome option;
  t_lock : Mutex.t;
  t_cond : Condition.t;
}

type request = {
  id : int;
  workload : Workload.t;
  lens : int array;
  deadline_us : float;  (** absolute, [Trace_sink.now_us] clock; [infinity] = none *)
  submitted_us : float;
  ticket : ticket;
}

(* A batching front end's window config, and a self-pipe the submit path
   writes after signalling [not_empty].  The stdlib [Condition] has no
   timed wait, so an open batching window sleeps in [Unix.select] on the
   read end with the window's remaining budget as the timeout — a submit
   wakes it immediately, an idle server blocks instead of burning a core,
   and formation latency does not quantise to a poll interval. *)
type batching = { cfg : Batcher.config; wake_r : Unix.file_descr; wake_w : Unix.file_descr }

type t = {
  srv : Server.t;
  fallback : Server.t option;  (** [`Interp] twin of a [`Compiled] server *)
  capacity : int;
  default_deadline_ns : float;  (** relative; [infinity] = none *)
  batching : batching option;  (** [None]: windows of one, never batched *)
  q : request Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

let now_us = Obs.Trace_sink.now_us

(* Wake any batching window blocked in [Unix.select].  Both ends are
   non-blocking: a full pipe already guarantees pending wakeups, so
   EAGAIN is dropped. *)
let wake_signal (fe : t) =
  match fe.batching with
  | None -> ()
  | Some b -> (
      (* best-effort: EAGAIN = pipe full = wakeups already pending;
         EBADF = already shut down *)
      try ignore (Unix.write b.wake_w (Bytes.make 1 '\001') 0 1) with Unix.Unix_error _ -> ())

(* Sleep until a submit writes the wake pipe or [timeout_us] elapses.
   Several batch workers select on the same read end; whoever loses the
   race to drain it just sees EAGAIN and re-checks the queue — spurious
   wakeups are harmless, missed ones impossible (the byte is written
   after the request is enqueued under the lock). *)
let wake_wait (b : batching) ~(timeout_us : float) =
  let timeout_s = Float.max 0.0 (timeout_us /. 1e6) in
  match Unix.select [ b.wake_r ] [] [] timeout_s with
  | [], _, _ -> ()
  | _ -> (
      let buf = Bytes.create 64 in
      try ignore (Unix.read b.wake_r buf 0 64)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* module-level handles: metric lookup is off the per-request path *)
let accepted_c = Obs.Metrics.counter "frontend.accepted"
let rejected_c = Obs.Metrics.counter "frontend.rejected"
let served_c = Obs.Metrics.counter "frontend.served"
let deadline_c = Obs.Metrics.counter "frontend.deadline_exceeded"
let errors_c = Obs.Metrics.counter "frontend.errors"
let queue_wait_h = Obs.Metrics.histogram "frontend.queue_wait_us"
let queue_depth_g = Obs.Metrics.gauge "frontend.queue_depth"

(* Process-wide request ids: allocated at admission, carried as span
   trace context ([Obs.Span.with_request]) from the submitting domain
   into whichever worker domain serves the request, so every span either
   side records belongs to exactly one id. *)
let next_id = Atomic.make 1
let request_id (tk : ticket) = tk.tk_id

let fresh_ticket id =
  { tk_id = id; outcome = None; t_lock = Mutex.create (); t_cond = Condition.create () }

let resolve (tk : ticket) (o : outcome) =
  Mutex.lock tk.t_lock;
  if Option.is_none tk.outcome then begin
    tk.outcome <- Some o;
    Condition.broadcast tk.t_cond
  end;
  Mutex.unlock tk.t_lock

let await (tk : ticket) : outcome =
  Mutex.lock tk.t_lock;
  while Option.is_none tk.outcome do
    Condition.wait tk.t_cond tk.t_lock
  done;
  let o = Option.get tk.outcome in
  Mutex.unlock tk.t_lock;
  o

let peek (tk : ticket) : outcome option =
  Mutex.lock tk.t_lock;
  let o = tk.outcome in
  Mutex.unlock tk.t_lock;
  o

(* The request's flight-recorder entry: cache/stage detail from the
   response when it has one, outcome label alone otherwise. *)
let flight_of (r : request) ~(queue_wait_us : float) ~batch_id ~batch_size (o : outcome) :
    Obs.Flight.record =
  let base =
    {
      Obs.Flight.id = r.id;
      workload = r.workload.Workload.name;
      sig_hex = "";
      submitted_us = r.submitted_us;
      queue_wait_us;
      stages_us = [];
      outcome = outcome_label o;
      compile_hits = 0;
      compile_misses = 0;
      prelude_hit = false;
      engine_hits = 0;
      engine_misses = 0;
      arena_hits = 0;
      arena_misses = 0;
      batch_id;
      batch_size;
      tuner = "";
    }
  in
  match o with
  | Response resp ->
      {
        base with
        Obs.Flight.sig_hex = resp.Server.tables_hex;
        stages_us = resp.Server.stages_us;
        compile_hits = resp.Server.compile_hits;
        compile_misses = resp.Server.compile_misses;
        prelude_hit = resp.Server.prelude_hit;
        engine_hits = resp.Server.engine_hits;
        engine_misses = resp.Server.engine_misses;
        arena_hits = resp.Server.arena_hits;
        arena_misses = resp.Server.arena_misses;
        tuner = resp.Server.tuner;
      }
  | Overloaded | Deadline_exceeded _ | Error _ -> base

(* ------------------------------------------------------------------ *)
(* Worker side: one loop — drain a window, group it, serve each group,
   finish each request *)

(* Drain one window: block for the first request, then — batching only —
   hold the window open, taking whatever else arrives, until it has
   [max_batch] requests or [max_wait_us] has passed.  An unbatched front
   end drains windows of one and never waits.  The open window sleeps on
   the wake pipe with the remaining budget as the select timeout (see
   [batching]); every submit writes the pipe, so arrivals cut the wait
   short instead of landing between polls. *)
let drain_window (fe : t) : request list option =
  let window = match fe.batching with Some b -> b.cfg.Batcher.max_batch | None -> 1 in
  Mutex.lock fe.lock;
  let rec first () =
    if not (Queue.is_empty fe.q) then Some (Queue.pop fe.q)
    else if fe.closing then None
    else begin
      Condition.wait fe.not_empty fe.lock;
      first ()
    end
  in
  match first () with
  | None ->
      Mutex.unlock fe.lock;
      None
  | Some r0 ->
      let acc = ref [ r0 ] and count = ref 1 in
      let t0 = now_us () in
      let rec fill () =
        while !count < window && not (Queue.is_empty fe.q) do
          acc := Queue.pop fe.q :: !acc;
          incr count
        done;
        match fe.batching with
        | Some b when !count < window && not fe.closing ->
            let remaining_us = b.cfg.Batcher.max_wait_us -. (now_us () -. t0) in
            if remaining_us > 0.0 then begin
              Mutex.unlock fe.lock;
              wake_wait b ~timeout_us:remaining_us;
              Mutex.lock fe.lock;
              fill ()
            end
        | _ -> ()
      in
      fill ();
      Obs.Metrics.set queue_depth_g (Queue.length fe.q);
      Condition.broadcast fe.not_full;
      Mutex.unlock fe.lock;
      Some (List.rev !acc)

(* The finish step every request takes, singleton or batch member: its
   outcome counter, its flight record, a post-mortem dump on a deadline
   miss or error, then the ticket. *)
let finish ?(batch_id = 0) ?(batch_size = 1) (r : request) ~(queue_wait_us : float)
    (o : outcome) =
  Obs.Metrics.observe queue_wait_h queue_wait_us;
  Obs.Flight.record (flight_of r ~queue_wait_us ~batch_id ~batch_size o);
  (* post-mortem: dump the ring (throttled, and only when armed) *)
  let dump () = ignore (Obs.Flight.auto_dump ~reason:(outcome_label o)) in
  (match o with
  | Response _ -> Obs.Metrics.incr served_c
  | Deadline_exceeded _ ->
      Obs.Metrics.incr deadline_c;
      dump ()
  | Error _ ->
      Obs.Metrics.incr errors_c;
      dump ()
  | Overloaded -> ());
  resolve r.ticket o

(* One request on its own.  Fault isolation lives in [Server.serve]:
   everything a request can throw comes back as a typed outcome, so a
   poisoned request can never take a worker domain (or a neighbour's
   pending request) down with it.

   The whole handling runs under the request's trace context
   ([Span.with_request]): every span recorded below — including those
   inside [Server.handle] — carries [r.id], reassemblable into one
   admission-to-outcome chain by [Trace_sink.events_for]. *)
let serve_one (fe : t) (r : request) =
  Obs.Span.with_request r.id @@ fun () ->
  let queue_wait_us = now_us () -. r.submitted_us in
  let o =
    Obs.Span.with_span
      ~attrs:[ ("workload", Obs.Trace_sink.Str r.workload.Workload.name) ]
      "frontend.request"
    @@ fun () ->
    let o =
      (* enforced at dequeue: a request that waited out its budget in the
         queue is answered without doing any work *)
      if now_us () > r.deadline_us then Deadline_exceeded "queue"
      else
        Server.serve ?fallback:fe.fallback ~deadline_us:r.deadline_us fe.srv r.workload
          r.lens
    in
    Obs.Span.add_attr "outcome" (Obs.Trace_sink.Str (outcome_label o));
    o
  in
  finish r ~queue_wait_us o

(* One group of same-instance requests through the batch-former, every
   ticket finished from the scattered outcomes. *)
let serve_batch (fe : t) (cfg : Batcher.config) (w : Workload.t) (rs : request list) =
  let rs = Array.of_list rs in
  let t_deq = now_us () in
  let members =
    Array.map
      (fun r -> { Batcher.m_lens = r.lens; m_deadline_us = r.deadline_us; m_id = r.id })
      rs
  in
  let served =
    try Batcher.run ?fallback:fe.fallback cfg fe.srv w members
    with e ->
      (* forming itself failed: fail every member; the worker survives *)
      let backtrace = Printexc.get_backtrace () in
      let failed = Error { exn = Printexc.to_string e; backtrace } in
      Array.map (fun _ -> { Batcher.outcome = failed; batch_id = 0; batch_size = 1 }) members
  in
  Array.iteri
    (fun i (s : Batcher.served) ->
      finish rs.(i) ~queue_wait_us:(t_deq -. rs.(i).submitted_us) ~batch_id:s.Batcher.batch_id
        ~batch_size:s.Batcher.batch_size s.Batcher.outcome)
    served

(* A drained window may mix workloads.  It is grouped by workload
   instance (physical equality): plans and batching descriptors belong to
   an instance, and two instances may share a name.  Under batching,
   every group of a batchable workload goes through the batch-former,
   even a group of one; everything else is served as singletons. *)
let serve_window (fe : t) (reqs : request list) =
  let groups =
    List.fold_left
      (fun gs r ->
        match List.assq_opt r.workload gs with
        | Some rs ->
            rs := r :: !rs;
            gs
        | None -> (r.workload, ref [ r ]) :: gs)
      [] reqs
  in
  List.iter
    (fun (w, rs) ->
      let rs = List.rev !rs in
      match (fe.batching, w.Workload.batching) with
      | Some b, Some _ -> serve_batch fe b.cfg w rs
      | _ -> List.iter (serve_one fe) rs)
    (List.rev groups)

let rec worker_loop (fe : t) =
  match drain_window fe with
  | None -> () (* closing and drained: the worker retires *)
  | Some reqs ->
      serve_window fe reqs;
      worker_loop fe

(* ------------------------------------------------------------------ *)
(* Client side *)

let create ?(domains = 4) ?(capacity = 64) ?deadline_ns ?batching (srv : Server.t) : t =
  if domains < 1 then invalid_arg "Frontend.create: domains must be >= 1";
  if capacity < 1 then invalid_arg "Frontend.create: capacity must be >= 1";
  (* outcomes carry backtraces; recording costs nothing on the happy path *)
  Printexc.record_backtrace true;
  let fallback =
    match Server.engine srv with
    | `Compiled -> Some (Server.with_engine srv `Interp)
    | `Interp -> None
  in
  let batching =
    Option.map
      (fun cfg ->
        let wake_r, wake_w = Unix.pipe () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        { cfg; wake_r; wake_w })
      batching
  in
  let fe =
    {
      srv;
      fallback;
      capacity;
      default_deadline_ns = Option.value deadline_ns ~default:infinity;
      batching;
      q = Queue.create ();
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      closing = false;
      workers = [];
    }
  in
  fe.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> worker_loop fe));
  fe

let deadline_of fe deadline_ns submitted_us =
  let rel = match deadline_ns with Some ns -> ns | None -> fe.default_deadline_ns in
  if rel = infinity then infinity else submitted_us +. (rel /. 1e3)

(* [wait_for_space] selects admission policy: reject (submit) vs
   backpressure (run_stream). *)
let enqueue ~wait_for_space ?deadline_ns (fe : t) (w : Workload.t) (lens : int array) :
    ticket =
  let id = Atomic.fetch_and_add next_id 1 in
  (* admission runs under the request's trace context too: the
     [frontend.submit] span carries the same id the worker-side spans
     will, stitching both domains into one per-request chain *)
  Obs.Span.with_request id @@ fun () ->
  Obs.Span.with_span
    ~attrs:[ ("workload", Obs.Trace_sink.Str w.Workload.name) ]
    "frontend.submit"
  @@ fun () ->
  let ticket = fresh_ticket id in
  let submitted_us = now_us () in
  let deadline_us = deadline_of fe deadline_ns submitted_us in
  let r = { id; workload = w; lens; deadline_us; submitted_us; ticket } in
  Mutex.lock fe.lock;
  if wait_for_space then
    while Queue.length fe.q >= fe.capacity && not fe.closing do
      Condition.wait fe.not_full fe.lock
    done;
  let admitted = (not fe.closing) && Queue.length fe.q < fe.capacity in
  if admitted then begin
    Queue.push r fe.q;
    Obs.Metrics.set queue_depth_g (Queue.length fe.q);
    Condition.signal fe.not_empty
  end;
  Mutex.unlock fe.lock;
  if admitted then wake_signal fe;
  Obs.Span.add_attr "admitted" (Obs.Trace_sink.Str (if admitted then "yes" else "no"));
  if admitted then Obs.Metrics.incr accepted_c
  else begin
    Obs.Metrics.incr rejected_c;
    resolve ticket Overloaded
  end;
  ticket

let submit ?deadline_ns fe w lens = enqueue ~wait_for_space:false ?deadline_ns fe w lens
let submit_wait ?deadline_ns fe w lens = enqueue ~wait_for_space:true ?deadline_ns fe w lens

let run_stream ?deadline_ns (fe : t) (w : Workload.t) (items : int array array) :
    outcome array =
  let tickets =
    Array.map (fun lens -> enqueue ~wait_for_space:true ?deadline_ns fe w lens) items
  in
  Array.map await tickets

let shutdown (fe : t) =
  Mutex.lock fe.lock;
  fe.closing <- true;
  Condition.broadcast fe.not_empty;
  Condition.broadcast fe.not_full;
  Mutex.unlock fe.lock;
  wake_signal fe;
  List.iter Domain.join fe.workers;
  fe.workers <- [];
  Option.iter
    (fun b ->
      (try Unix.close b.wake_r with Unix.Unix_error _ -> ());
      try Unix.close b.wake_w with Unix.Unix_error _ -> ())
    fe.batching

let queue_length (fe : t) =
  Mutex.lock fe.lock;
  let n = Queue.length fe.q in
  Mutex.unlock fe.lock;
  n
