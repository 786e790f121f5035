(** Registry of hand-specialized microkernel bodies — the [O3] backend
    below {!Engine}.

    Each function is a straight-line, stride-specialized loop over raw
    [float array]s: unit-stride dot with 4-way unrolling, a register-tiled
    dot sweeping four destination elements per pass (amortizing the shared
    operand's loads), [Array.blit]-backed unit-stride copy, unrolled
    scale, and strided fallbacks.  {!Engine.emit_inner} selects among them
    once, when the closure is built, from {!Ir.Optimize.classify_stride} /
    {!Ir.Optimize.classify_nest} — never per call.

    {b Contract.}  Callers bounds-check the whole index range before
    calling (the engine's hoisted endpoint checks); element accesses here
    are unchecked.  Every kernel reproduces the generic per-element loop's
    float operation sequence exactly: one order-preserving accumulator
    chain per destination element (unrolling never reassociates a chain —
    [(((acc + p0) + p1) + p2) + p3] is the sequential association), and
    products keep the original left/right multiplicand order (NaN payload
    propagation is operand-order-sensitive).  Multiple {e independent}
    accumulators appear only in the tiled kernels, where each belongs to
    a distinct destination element.  Results are therefore
    bitwise-identical to the interpreter's.

    Accumulators live in single-field all-float records ({!cell},
    {!acc4}), which OCaml stores flat: accumulation is an unboxed
    load/add/store, where the generic loop's [float ref] boxes a fresh
    float (and runs the write barrier) on every iteration. *)

(** Flat one-float accumulator cell. *)
type cell = { mutable v : float }

(** Four independent flat accumulators — one per destination element of a
    register tile. *)
type acc4 = { mutable x0 : float; mutable x1 : float; mutable x2 : float; mutable x3 : float }

(** [dot_sum_unit ~a ~a0 ~b ~b0 ~n ~init] is
    [init + a.(a0)*b.(b0) + ... + a.(a0+n-1)*b.(b0+n-1)], 4-way
    unrolled, sequential association. *)
val dot_sum_unit :
  a:float array -> a0:int -> b:float array -> b0:int -> n:int -> init:float -> float

(** Strided sum-dot with running offsets; 4-way unrolled. *)
val dot_sum_strided :
  a:float array ->
  a0:int ->
  astep:int ->
  b:float array ->
  b0:int ->
  bstep:int ->
  n:int ->
  init:float ->
  float

(** General-combine strided dot (Prod/Rmax/Rmin reductions): per-element
    [combine], unboxed accumulator. *)
val dot_strided :
  combine:(float -> float -> float) ->
  a:float array ->
  a0:int ->
  astep:int ->
  b:float array ->
  b0:int ->
  bstep:int ->
  n:int ->
  init:float ->
  float

(** Register-tiled sum-dot, shared operand as the {e left} multiplicand:
    for each of [n] reduction steps, load [s.(s0 + k*ss)] once and feed
    four chains [acc.xj += sv * m.(m0 + j*mjs + k*mks)], [j = 0..3].
    Accumulators arrive initialized with the four destination cells and
    are written back by the caller. *)
val tile4_dot_sum_shared_left :
  s:float array ->
  s0:int ->
  ss:int ->
  m:float array ->
  m0:int ->
  mjs:int ->
  mks:int ->
  n:int ->
  acc4 ->
  unit

(** Same, shared operand as the {e right} multiplicand
    ([acc.xj += m_val * sv]). *)
val tile4_dot_sum_shared_right :
  s:float array ->
  s0:int ->
  ss:int ->
  m:float array ->
  m0:int ->
  mjs:int ->
  mks:int ->
  n:int ->
  acc4 ->
  unit

(** Unit-stride sum-reduction, 4-way unrolled, sequential association. *)
val reduce1_sum_unit : src:float array -> s0:int -> n:int -> init:float -> float

val reduce1_sum_strided :
  src:float array -> s0:int -> sstep:int -> n:int -> init:float -> float

val reduce1_strided :
  combine:(float -> float -> float) ->
  src:float array ->
  s0:int ->
  sstep:int ->
  n:int ->
  init:float ->
  float

(** Unit-stride copy via [Array.blit].  {b Requires dst != src}: blit has
    memmove semantics where the generic loop forward-propagates on
    overlap — the engine dispatches on physical array equality. *)
val copy_unit : dst:float array -> d0:int -> src:float array -> s0:int -> n:int -> unit

(** Strided copy; strict per-element read-then-write forward order, so
    safe under any aliasing. *)
val copy_strided :
  dst:float array -> d0:int -> dstep:int -> src:float array -> s0:int -> sstep:int -> n:int -> unit

(** Unit-stride scale, 4-way unrolled; per-element read-then-write
    forward order, aliasing-safe. *)
val scale_unit :
  dst:float array -> d0:int -> src:float array -> s0:int -> factor:float -> n:int -> unit

val scale_strided :
  dst:float array ->
  d0:int ->
  dstep:int ->
  src:float array ->
  s0:int ->
  sstep:int ->
  factor:float ->
  n:int ->
  unit

(** Fused softmax row over [n] source elements [src.(s0 + c*sstep)]:
    [mx = fold Float.max max_init x], [den = fold (+.) den_init e_c] with
    [e_c = exp (x_c -. mx)] computed once and cached in
    [dst.(d0 + c*dstep)], then [dst] holds [e_c /. den] for [c < n] and
    [fill] for [n <= c < npad].  Bitwise equal to the generic four-loop
    row (which computes every exp twice).  {b Requires dst != src} and
    [dstep <> 0]. *)
val softmax_row :
  src:float array ->
  s0:int ->
  sstep:int ->
  dst:float array ->
  d0:int ->
  dstep:int ->
  n:int ->
  npad:int ->
  max_init:float ->
  den_init:float ->
  fill:float ->
  unit
