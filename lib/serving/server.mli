(** The serving loop's core: handle one request = look up the plan for
    its shape ({!Workload.plan}, memoized per workload instance), then
    bind, run and unpack it through the selected engine.

    A plan miss builds the plan stage by stage: compile (lowering through
    the {!Cora.Lower} compile cache, and under the compiled engine each
    kernel through the engine memo), build the prelude (delta-updated
    from the predecessor step's plan for autoregressive workloads), and
    time the pipeline on the machine model.  A hit does none of that.

    The plan memo can be bypassed per server ([~cache:false]) — a bypassed
    server rebuilds everything per request, which is what the
    differential tests compare against.  [model_ns] is model time
    (deterministic), not a wall-clock latency; each request runs under a
    [serve.request] span and lands in the [serve.model_ns] histogram. *)

(** Interpreter statistics of one request, for differential comparison. *)
type counters = (string * int) list

type response = {
  model_ns : float;  (** kernels + (on prelude miss) host build + copy *)
  kernels_ns : float;
  prelude_host_ns : float;  (** 0 on a plan hit *)
  prelude_copy_ns : float;  (** 0 on a plan hit *)
  compile_hits : int;
      (** compile-cache hits while building this job; the kernel count on
          a plan hit *)
  compile_misses : int;
  prelude_hit : bool;  (** the plan, and so its prelude, was memoized *)
  engine_hits : int;
      (** compiled-kernel-memo hits while building this plan; the kernel
          count on a plan hit (0 under the interpreter) *)
  engine_misses : int;
  arena_hits : int;  (** arena acquisitions recycled / freshly allocated *)
  arena_misses : int;
  tables_hex : string;  (** hex raggedness signature of the batch ({!Cora.Sig.to_hex}) *)
  tuner : string;
      (** autotuner state of this request: ["off"] (tuning disabled or
          workload not tunable), ["miss"] (hand schedule served, memo
          warmed after the pipeline), ["tuned"] (memo hit, tuned schedule
          served), ["hand"] (memo hit, search kept the hand schedule) *)
  tune_us : float;  (** wall time of the post-pipeline tune; 0 unless ["miss"] *)
  stages_us : (string * float) list;
      (** wall-clock duration of each pipeline stage, in request order:
          [("compile", _); ("prelude", _); ("launch", _); ("execute", _)];
          on a plan hit "compile" is the plan lookup and the next two
          are empty *)
  counters : counters option;
      (** [None] when execution is off or runs on the compiled engine,
          which counts no scalar work *)
  out : float array option;  (** dense (padded) output values *)
  checksum : float;  (** sum of [out]; 0 when execution is off *)
}

type t

(** [create ()] — a server with its plan memo on ([~cache:false] builds
    every request afresh).  [~execute:false] skips execution
    (machine-model timing only): streams too large to execute still
    exercise the memo.  [~engine] selects how [~execute:true]
    requests run: the reference interpreter (default) or the compiled
    closure engine — identical outputs, far less overhead, no counters
    (see {!Cora.Exec.engine}).  [~opt] (default [O0], compiled engine
    only) selects the {!Ir.Optimize} level — outputs stay
    bitwise-identical at every level.

    Tensor buffers for execution come from the process-wide
    {!Cora.Runtime.Buffer.Arena} (power-of-two size classes, released
    after the response's output is unpacked), so a steady-state request
    stream allocates no fresh float arrays — watch [arena.hit] /
    [arena.miss].

    [~autotune] enables the online schedule autotuner: a plan miss for a
    workload with a {!Workload.tunable} descriptor consults the tuner
    memo (keyed by workload name, {!Cora.Sig.of_tables} over the length
    tables, and [~opt]); a hit with a winning point plans the tuned
    schedule, a miss serves the hand schedule and runs a budgeted
    two-stage search after the response's pipeline completes, then
    memoizes the winner's plan — so tuning never delays the response's
    own stages, and every response stays bitwise-identical to an untuned
    replay (the candidate spaces only move data-axis loop structure). *)
val create :
  ?device:Machine.Device.t ->
  ?cache:bool -> ?execute:bool ->
  ?engine:Cora.Exec.engine -> ?opt:Ir.Optimize.level ->
  ?autotune:Autotune.Tuner.cfg -> unit -> t

val autotune_enabled : t -> bool
val engine : t -> Cora.Exec.engine

(** Optimization level [~execute:true] requests run at. *)
val opt_level : t -> Ir.Optimize.level

(** [with_engine srv e] — the same server configuration with a different
    execution engine (used by {!Frontend} to build the [`Interp]
    fallback twin of a [`Compiled] server).  The engine is part of every
    plan key, so the twin builds and hits plans of its own. *)
val with_engine : t -> Cora.Exec.engine -> t

(** Handle one request: workload + raggedness vector.

    [?stage_check] is invoked with the stage name ("compile", "prelude",
    "launch", "execute") immediately before each pipeline stage; raising
    from it aborts the request between stages — the deadline-enforcement
    hook of {!serve}.  Per-request hit/miss counts come from the
    plan build itself (lowering scoped through {!Cora.Lower.with_memo},
    engine-memo flags from {!Cora.Exec.compile_cached}), never from
    global counter deltas, so they stay exact when requests run
    concurrently on several domains.  An autoregressive workload's plan
    miss that delta-updates its prelude counts [plan.delta].

    [?fill] overrides {!default_fill} for input tensors (read but never
    written).  {!Serving.Batcher} uses it to fill a mega-batch's inputs
    with each member request's {e own} [default_fill] values (the batch
    row index routed back to the member's local row), so a request served
    inside a mega-batch computes over bitwise the same inputs as a solo
    replay. *)
val handle :
  ?stage_check:(string -> unit) ->
  ?fill:(string -> int list -> float) ->
  t -> Workload.t -> int array -> response

(** Drop all serving state: every workload's plans, the compile memo,
    the engine's compiled-kernel memo and the tuner memo.  The one way to
    invalidate serving state — plans are immutable and never go stale on
    their own, since each key names everything its plan depends on. *)
val reset_caches : unit -> unit

(** Deterministic input fill used for every tensor that is read but never
    written: a hash of the tensor name and multi-index. *)
val default_fill : string -> int list -> float

(** A request's typed result — the one outcome type of every serving
    path: a {!Frontend} singleton, a {!Batcher} mega-batch member and the
    CLI's serial batched replay all return it ({!Frontend.outcome} is
    this type re-exported). *)
type outcome =
  | Response of response  (** served normally (or on the degraded engine) *)
  | Overloaded  (** rejected at admission: the front end's queue was full *)
  | Deadline_exceeded of string
      (** expired; the payload is the stage reached: ["queue"] (at
          dequeue), ["batch"] (evicted while a mega-batch formed),
          ["compile"], ["prelude"], ["launch"], ["execute"] (between
          {!handle}'s stages) or ["scatter"] (a mega-batch member served
          past its own deadline) *)
  | Error of { exn : string; backtrace : string }
      (** the workload raised; the worker survived *)

(** [serve ~deadline_us srv w lens] — {!handle} as a typed outcome: the
    absolute deadline ([Trace_sink.now_us] clock; [infinity] = none) is
    checked before each stage ([Deadline_exceeded stage]), and any
    exception becomes [Error] with its backtrace.  With [?fallback], a
    {!Runtime.Engine.Error} (the compiled engine rejecting a kernel) is
    retried once on [fallback] — the interpreter twin — and counted in
    [frontend.degraded].  The one degrade-and-retry step: it serves a
    front-end singleton and a whole mega-batch alike.  Never returns
    [Overloaded]. *)
val serve :
  ?fallback:t ->
  ?fill:(string -> int list -> float) ->
  deadline_us:float ->
  t -> Workload.t -> int array -> outcome
