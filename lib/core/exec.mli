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

(** Returns the interpreter environment — [Some] under [`Interp], whose
    statistics counters it carries; [None] under [`Compiled], which
    counts nothing — and the prelude used (for overhead accounting).
    [?domains] (default 1) above 1 executes [Parallel]-bound loops on
    one persistent {!Runtime.Engine.Pool} of that many domains; it
    requires [`Compiled] ([Invalid_argument] under [`Interp], the serial
    oracle).  [?prelude] supplies already-built aux structures (e.g. from
    {!Prelude_cache}), skipping the build.  [?opt] (default [O0],
    compiled engine only) selects the {!Ir.Optimize} level — outputs stay
    bitwise-identical at every level. *)
val run :
  ?engine:engine -> ?opt:Ir.Optimize.level -> ?domains:int ->
  ?prelude:Prelude.built ->
  lenv:Lenfun.env -> bindings:binding list -> Lower.kernel list ->
  Runtime.Interp.env option * Prelude.built

val run_ragged :
  ?engine:engine -> ?opt:Ir.Optimize.level -> ?domains:int ->
  ?prelude:Prelude.built ->
  lenv:Lenfun.env -> tensors:Ragged.t list -> Lower.kernel list ->
  Runtime.Interp.env option * Prelude.built

(** Per-request compiled-kernel-memo accounting.  [with_engine_stats f]
    runs [f] with a fresh tally scoped to the calling domain (like
    {!Lower.with_memo}): every memo probe made by [f] — and nothing made
    by overlapping requests on other domains — is counted.  Nested
    scopes shadow; the previous scope is restored on exit. *)
type engine_stats = { mutable hits : int; mutable misses : int }

val with_engine_stats : (unit -> 'a) -> 'a * engine_stats

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
