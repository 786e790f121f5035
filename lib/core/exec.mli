(** Kernel execution — the runtime half of Fig. 4: build the (deduplicated)
    prelude on the host, bind aux tables, length functions and tensor
    buffers, then execute the kernels in order through the selected engine.
    Used wherever real numerics are needed; performance questions go to
    {!Machine.Launch}.

    Traced as one [exec.run] span (prelude build inside) plus one
    [exec.kernel] span per kernel; an interpreted run's statistics
    counters are flushed into the {!Obs.Metrics} registry under
    [interp.*]. *)

type binding = Tensor.t * Runtime.Buffer.t

(** [`Interp] walks the tree through {!Runtime.Interp} (ground truth);
    [`Compiled] stages each kernel into slot-resolved closures through
    {!Runtime.Engine} — bitwise-identical results, interpretive overhead
    gone, no scalar-work counters.  Compiled kernels are memoized per
    structural signature. *)
type engine = [ `Interp | `Compiled ]

val engine_name : engine -> string

(** Returns the interpreter environment — [Some] under [`Interp], whose
    statistics counters it carries; [None] under [`Compiled], which
    counts nothing — and the prelude used (for overhead accounting).
    [?domains] (default 1) above 1 executes [Parallel]-bound loops on
    one persistent {!Runtime.Engine.Pool} of that many domains; it
    requires [`Compiled] ([Invalid_argument] under [`Interp], the serial
    oracle).  [?prelude] supplies already-built aux structures (e.g. a
    serving plan's), skipping the build.  [?compiled] supplies the
    kernels already compiled (one per kernel, in order, e.g. a serving
    plan's); without it each kernel is compiled through the memo
    ({!compile_cached}).  [?opt] (default [O0], compiled engine only)
    selects the {!Ir.Optimize} level — outputs stay bitwise-identical at
    every level. *)
val run :
  ?engine:engine -> ?opt:Ir.Optimize.level -> ?domains:int ->
  ?prelude:Prelude.built -> ?compiled:Runtime.Engine.compiled list ->
  lenv:Lenfun.env -> bindings:binding list -> Lower.kernel list ->
  Runtime.Interp.env option * Prelude.built

val run_ragged :
  ?engine:engine -> ?opt:Ir.Optimize.level -> ?domains:int ->
  ?prelude:Prelude.built ->
  lenv:Lenfun.env -> tensors:Ragged.t list -> Lower.kernel list ->
  Runtime.Interp.env option * Prelude.built

(** [compile_cached ~opt k] — [k]'s body compiled at [opt], through the
    [(Sig, opt level)]-keyed memo; the flag says whether it was a memo
    hit ([engine_cache.hit] / [engine_cache.miss]). *)
val compile_cached : opt:Ir.Optimize.level -> Lower.kernel -> Runtime.Engine.compiled * bool

(** Clear the [(Sig, opt level)]-keyed compiled-kernel memo (paired with
    {!Lower.clear_memo} by [Serving.Server.reset_caches]). *)
val clear_engine_memo : unit -> unit

(** Number of compiled kernels currently memoized. *)
val engine_memo_size : unit -> int

(** The memo is shared across serving worker domains: mutex-protected
    and bounded with least-recently-used eviction ([engine_cache.evicted]
    counter).  [set_engine_memo_capacity] clamps to >= 1 and evicts
    immediately when shrinking below the current size. *)
val set_engine_memo_capacity : int -> unit

val engine_memo_capacity : unit -> int
