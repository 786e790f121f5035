(** IR optimization pipeline — runs on lowered [Stmt]/[Expr] between
    {!Lower} (well, the lowered kernel body it produced) and engine
    compilation.

    Three cooperating pieces, mirroring the paper's §D.7 load hoisting and
    the LoopStack-style innermost-loop specialization:

    - {b loop-invariant code motion} ({!licm}): ragged-offset
      subexpressions — [A_d] prelude-table reads ([Ufun]s), affine index
      products — are hoisted to the outermost loop level where their free
      variables are bound, becoming [Let_stmt] preheaders;
    - {b affine decomposition} ({!affine_in}): rewrites an index
      expression as [base + var * stride], the analysis behind strength
      reduction (running offsets instead of re-evaluated address trees);
    - {b innermost-loop classification} ({!classify_inner}): recognizes
      dense dot / reduction / copy / scale loop bodies so the engine can
      emit fused microkernels;
    - {b stride, nest and row classification} ({!classify_stride},
      {!classify_nest}, {!classify_softmax_row}): folds affine strides to
      compile-time classes (statically-unit / statically-constant /
      dynamic) and recognizes register-tilable dot nests and softmax
      rows, so the [O3] engine selects a specialized kernel variant when
      the closure is built rather than per call.

    The pipeline itself never changes observable values: hoisting moves
    only {e pure integer} expressions (no loads, no float ops, no
    division by a possibly-zero expression), so the optimized program is
    bitwise-identical to the unoptimized one on well-formed kernels.
    Hoisted [Ufun] reads run once per preheader entry instead of once
    per iteration — the work saving; the static count of bindings
    created is the [optimize.hoisted] metric.

    Speculation caveat: a hoisted binding is evaluated even when every
    loop below it runs zero iterations (or every guard below it is
    false), where the unoptimized program would not have evaluated it.
    This is safe for the expressions we hoist — prelude tables are total
    over the variables bound at the preheader — and is the standard LICM
    trade; the differential fuzz in [test/test_optimize.ml] exercises it
    across guarded, padded and zero-length schedules. *)

(** Optimization level, threaded from [Exec]/[Serving]/the CLI down to
    {!Runtime.Engine.compile}:
    [O0] — none;
    [O1] — LICM + strength-reduced innermost store loops;
    [O2] — [O1] + fused microkernels;
    [O3] — [O2] + stride-specialized, register-tiled microkernel variants
    selected at closure-build time from {!classify_stride} /
    {!classify_nest} (outputs stay bitwise-identical; the generic [O2]
    loop remains the aliasing fallback). *)
type level = O0 | O1 | O2 | O3

val level_of_int : int -> level
(** [0 -> O0], [1 -> O1], [2 -> O2], anything [>= 3 -> O3]. *)

val int_of_level : level -> int
val level_name : level -> string

(** Per-run report of what the pipeline did. *)
type report = { hoisted : int  (** [Let_stmt] preheader bindings created *) }

val licm : Stmt.t -> Stmt.t * report
(** Loop-invariant code motion (pass [optimize.licm], traced as a span;
    bindings created are counted in the [optimize.hoisted] metric). *)

val run : level:level -> Stmt.t -> Stmt.t * report
(** Run the pass list for [level] ([O0] is the identity). *)

(* ------------------------------------------------------------------ *)
(* Analyses used by the engine's strength reduction and microkernels *)

(** [index = base + var * stride], with [base] and [stride] free of [var]. *)
type affine = { base : Expr.t; stride : Expr.t }

val affine_in : Var.t -> Expr.t -> affine option
(** Structural affine decomposition w.r.t. [var].  Exact in integer
    arithmetic (only reassociates [+]/[-]/[*]); [None] when the
    expression is not affine in [var] (e.g. [var] under floordiv/mod). *)

(** Innermost-loop body shapes the engine fuses into microkernels.  All
    index fields are affine in the loop variable; [dst_idx] of the
    reductions is invariant in it (the register-accumulation condition). *)
type inner =
  | Dot of {
      dst : Var.t;
      dst_idx : Expr.t;
      op : Stmt.reduce_op;
      a : Var.t;
      a_ix : affine;
      b : Var.t;
      b_ix : affine;
    }  (** [dst[dst_idx] op= a[..] * b[..]] — the gemm/attention inner loop *)
  | Reduce1 of { dst : Var.t; dst_idx : Expr.t; op : Stmt.reduce_op; src : Var.t; src_ix : affine }
      (** [dst[dst_idx] op= src[..]] — row max / row sum *)
  | Copy of { dst : Var.t; dst_ix : affine; src : Var.t; src_ix : affine }
      (** [dst[..] = src[..]] — row gather / scatter *)
  | Scale of { dst : Var.t; dst_ix : affine; src : Var.t; src_ix : affine; factor : float }
      (** [dst[..] = src[..] * c] (or [c * src[..]]) with a literal [c] *)

val classify_inner : var:Var.t -> Stmt.t -> inner option
(** Classify a loop {e body} (single statement, no [Seq]/[If] wrapper)
    against the microkernel shapes, w.r.t. loop variable [var]. *)

val const_of : Expr.t -> int option
(** Conservative integer constant folding over [+ - * min max]; [None]
    for anything that does not fold to a literal. *)

(** Compile-time class of an affine stride, deciding which [O3] kernel
    variant the engine binds when the closure is built:
    [S_unit] — folds to literal [1] (contiguous; unrolled kernels and
    [Array.blit] copies apply);
    [S_const n] — folds to literal [n] (the step can be baked into the
    closure);
    [S_dyn] — anything else (evaluated at block entry; strided kernels). *)
type stride_class = S_unit | S_const of int | S_dyn

val classify_stride : affine -> stride_class

(** A guard or mask conjunct, sorted at classification time for
    {e operation splitting} (CoRa's peeling of the ragged boundary):
    [Inv c] does not mention the tile var, so one evaluation per block
    decides it for every tile-var value; [Lim] is
    [base + stride * j < bound] with [base] and [bound] tile-var-invariant
    and [stride > 0] (a source [a(j) <= b] arrives as [a(j) < b + 1]), so
    it holds exactly on a prefix of the [j] range, computed once per
    block.  Conjuncts are pure and kept in source order. *)
type cond = Inv of Expr.t | Lim of { base : Expr.t; stride : int; bound : Expr.t }

(** Epilogue store rewriting a finished dot cell.  [Epi_scale c] is
    [cell = cell * c] with a literal [c], which the engine folds into the
    accumulator store (bitwise the same: the generic path stores the
    chain, reloads the same cell and multiplies); [Epi_store s] is any
    other cell-local store, run per tile-var value. *)
type epilogue = Epi_scale of float | Epi_store of Stmt.t

(** Two-deep nest shape the engine register-tiles at [O3]: a loop over
    the tile var whose body is a serial dot loop writing a distinct
    destination element per tile-var iteration.  [shared]'s address is
    tile-var-invariant (one load serves every chain of the tile);
    [moving]'s reduction stride is tile-var-invariant while its base
    advances affinely with the tile var.  Each destination element keeps
    its own order-preserving accumulator chain, so the chains are
    independent and tiling cannot perturb float results. *)
type nest =
  | Tiled_dot of {
      dst : Var.t;
      dst_ix : affine;  (** destination index, affine in the tile var *)
      guard : cond list;
          (** raggedness guard conjuncts; tile-var values where any is
              false leave their cell untouched *)
      init : Expr.t option;
          (** init-store value for the dot's cell, evaluated per tile-var
              value; [None] means accumulate into the existing cell *)
      init_bufs : Var.t list;
          (** buffers the init value loads from (beyond the cell itself) —
              the engine falls back if any aliases the destination *)
      epi : epilogue option;  (** run per tile-var value after its chain completes *)
      epi_bufs : Var.t list;  (** like [init_bufs], for an [Epi_store] *)
      vmask : cond list;
          (** inner-var-invariant mask conjuncts; where any is false the
              chain only accumulates zeros *)
      kbound : Expr.t option;
          (** mask conjunct [kvar < kbound] (tile-var-invariant): real
              products stop there, the rest of the chain adds zeros *)
      kmin : Expr.t;  (** inner loop bounds, tile-var-invariant *)
      kext : Expr.t;
      shared : Var.t;
      shared_ix : affine;  (** affine in the inner var; tile-var-invariant *)
      shared_left : bool;  (** shared operand is the left multiplicand *)
      moving : Var.t;
      moving_kstride : Expr.t;  (** inner-var stride, tile-var-invariant *)
      moving_jbase : affine;  (** inner-var base, as affine in the tile var *)
    }

val classify_nest : var:Var.t -> Stmt.t -> nest option
(** Classify a loop {e body} against the register-tilable nest shape,
    w.r.t. tile variable [var].  The body may be the inner [For]
    directly, or the shape lowering actually produces:
    [If (guard) { dst[i] = init; let hv = ...;
                  for k { dst[i] += mask ? a[..]*b[..] : 0. };
                  dst[i] = epi }]
    — the guard conjuncts, init value, mask conjuncts and epilogue store
    are kept in the result for the engine (init and epilogue only when
    they address exactly the dot's own cell; masks split into
    inner-var-invariant conjuncts and one [k < bound] threshold; the
    masked dot's false branch must be literal [+0.0], which the tiled
    kernel reproduces by skipping the zero adds and clearing a possible
    [-0.0] accumulator).  Every guard and inner-var-invariant mask
    conjunct must be a {!cond}: a conjunct that is neither tile-var
    invariant nor an affine limit with a positive literal stride rejects
    the nest.  Pure-integer [Let_stmt] preheader bindings are inlined
    into the returned expressions.  [Sum] reductions only. *)

(** The softmax row body [Transformer.Custom.softmax] lowers to, as one
    shape: three [Alloc]s (row scratch, running max, denominator) around
    a copy of [cols] source elements into the scratch, a max reduction
    from [max_init], a [Σ exp(x - max)] from [den_init], and a store of
    [select(c < cols, exp(x_c - max) / den, fill)] over [cols_padded]
    destination elements.  [src_ix] / [dst_ix] are the column-affine
    source and destination indices; [row_size] is the scratch's
    allocation size.  Every column-invariant expression is pure integer
    arithmetic with the peeled [Let_stmt] bindings inlined. *)
type softmax_row = {
  row_size : Expr.t;
  cols : Expr.t;
  cols_padded : Expr.t;
  src : Var.t;
  src_ix : affine;
  dst : Var.t;
  dst_ix : affine;
  max_init : float;
  den_init : float;
  fill : float;
}

val classify_softmax_row : Stmt.t -> softmax_row option
(** Classify an [Alloc] statement against {!softmax_row}.  [cols] may be
    any int expression that does not depend on the column loops (the row
    length, a triangle-limited prefix, a second length function). *)
