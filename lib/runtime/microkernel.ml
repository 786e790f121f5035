(* Stride-specialized straight-line kernels (see microkernel.mli).  Every
   kernel here assumes the caller has already bounds-checked the whole
   index range (the engine's hoisted endpoint checks), so element accesses
   are unsafe_get/set; and every kernel reproduces the float operation
   sequence of the generic per-element loop it replaces exactly — one
   order-preserving accumulator chain per destination element, products
   in the original left/right multiplicand order — so results are
   bitwise-identical to the interpreter's. *)

(* Unboxed accumulator: a single-field all-float record is stored flat,
   so [c.v <- c.v +. x] is an unboxed load/add/store — no allocation, no
   write barrier.  This is the whole point of the O3 dot kernels: the
   generic loop's [float ref] boxes a fresh float on every iteration. *)
type cell = { mutable v : float }

type acc4 = { mutable x0 : float; mutable x1 : float; mutable x2 : float; mutable x3 : float }

(* ------------------------------------------------------------------ *)
(* Dot: dst op= a[..] * b[..] over one reduction chain *)

let dot_sum_unit ~a ~a0 ~b ~b0 ~n ~init =
  let c = { v = init } in
  let n4 = n - 3 in
  let i = ref 0 in
  while !i < n4 do
    let k = !i in
    (* four independent products, one order-preserving addition chain:
       (((acc + p0) + p1) + p2) + p3 is the sequential association *)
    let p0 = Array.unsafe_get a (a0 + k) *. Array.unsafe_get b (b0 + k) in
    let p1 = Array.unsafe_get a (a0 + k + 1) *. Array.unsafe_get b (b0 + k + 1) in
    let p2 = Array.unsafe_get a (a0 + k + 2) *. Array.unsafe_get b (b0 + k + 2) in
    let p3 = Array.unsafe_get a (a0 + k + 3) *. Array.unsafe_get b (b0 + k + 3) in
    c.v <- c.v +. p0 +. p1 +. p2 +. p3;
    i := k + 4
  done;
  while !i < n do
    let k = !i in
    c.v <- c.v +. (Array.unsafe_get a (a0 + k) *. Array.unsafe_get b (b0 + k));
    i := k + 1
  done;
  c.v

let dot_sum_strided ~a ~a0 ~astep ~b ~b0 ~bstep ~n ~init =
  let c = { v = init } in
  let ai = ref a0 and bi = ref b0 in
  let n4 = n - 3 in
  let i = ref 0 in
  while !i < n4 do
    let a1 = !ai + astep and b1 = !bi + bstep in
    let a2 = a1 + astep and b2 = b1 + bstep in
    let a3 = a2 + astep and b3 = b2 + bstep in
    let p0 = Array.unsafe_get a !ai *. Array.unsafe_get b !bi in
    let p1 = Array.unsafe_get a a1 *. Array.unsafe_get b b1 in
    let p2 = Array.unsafe_get a a2 *. Array.unsafe_get b b2 in
    let p3 = Array.unsafe_get a a3 *. Array.unsafe_get b b3 in
    c.v <- c.v +. p0 +. p1 +. p2 +. p3;
    ai := a3 + astep;
    bi := b3 + bstep;
    i := !i + 4
  done;
  while !i < n do
    c.v <- c.v +. (Array.unsafe_get a !ai *. Array.unsafe_get b !bi);
    ai := !ai + astep;
    bi := !bi + bstep;
    incr i
  done;
  c.v

let dot_strided ~combine ~a ~a0 ~astep ~b ~b0 ~bstep ~n ~init =
  let c = { v = init } in
  let ai = ref a0 and bi = ref b0 in
  for _ = 1 to n do
    c.v <- combine c.v (Array.unsafe_get a !ai *. Array.unsafe_get b !bi);
    ai := !ai + astep;
    bi := !bi + bstep
  done;
  c.v

(* ------------------------------------------------------------------ *)
(* Register-tiled dot: four destination chains per pass.  The shared
   operand is loaded once per reduction step and feeds all four chains;
   each chain keeps its own accumulator field, so the four additions are
   genuinely independent — bitwise-safe because no chain's order changes.
   [mjs] is the moving operand's tile-var stride, [mks] its reduction
   stride; [shared_left] callers multiply shared * moving, [shared_right]
   moving * shared (multiplication order is preserved because NaN payload
   propagation is operand-order-sensitive on real hardware). *)

let tile4_dot_sum_shared_left ~s ~s0 ~ss ~m ~m0 ~mjs ~mks ~n (acc : acc4) =
  let mjs2 = mjs + mjs in
  let mjs3 = mjs2 + mjs in
  (* local float refs stay in registers across the loop *)
  let x0 = ref acc.x0 and x1 = ref acc.x1 and x2 = ref acc.x2 and x3 = ref acc.x3 in
  let si = ref s0 and mi = ref m0 in
  for _ = 1 to n do
    let sv = Array.unsafe_get s !si in
    let r = !mi in
    x0 := !x0 +. (sv *. Array.unsafe_get m r);
    x1 := !x1 +. (sv *. Array.unsafe_get m (r + mjs));
    x2 := !x2 +. (sv *. Array.unsafe_get m (r + mjs2));
    x3 := !x3 +. (sv *. Array.unsafe_get m (r + mjs3));
    si := !si + ss;
    mi := r + mks
  done;
  acc.x0 <- !x0;
  acc.x1 <- !x1;
  acc.x2 <- !x2;
  acc.x3 <- !x3

let tile4_dot_sum_shared_right ~s ~s0 ~ss ~m ~m0 ~mjs ~mks ~n (acc : acc4) =
  let mjs2 = mjs + mjs in
  let mjs3 = mjs2 + mjs in
  (* local float refs stay in registers across the loop *)
  let x0 = ref acc.x0 and x1 = ref acc.x1 and x2 = ref acc.x2 and x3 = ref acc.x3 in
  let si = ref s0 and mi = ref m0 in
  for _ = 1 to n do
    let sv = Array.unsafe_get s !si in
    let r = !mi in
    x0 := !x0 +. (Array.unsafe_get m r *. sv);
    x1 := !x1 +. (Array.unsafe_get m (r + mjs) *. sv);
    x2 := !x2 +. (Array.unsafe_get m (r + mjs2) *. sv);
    x3 := !x3 +. (Array.unsafe_get m (r + mjs3) *. sv);
    si := !si + ss;
    mi := r + mks
  done;
  acc.x0 <- !x0;
  acc.x1 <- !x1;
  acc.x2 <- !x2;
  acc.x3 <- !x3

(* ------------------------------------------------------------------ *)
(* Reduce1: dst op= src[..] over one chain *)

let reduce1_sum_unit ~src ~s0 ~n ~init =
  let c = { v = init } in
  let n4 = n - 3 in
  let i = ref 0 in
  while !i < n4 do
    let k = !i in
    c.v <-
      c.v
      +. Array.unsafe_get src (s0 + k)
      +. Array.unsafe_get src (s0 + k + 1)
      +. Array.unsafe_get src (s0 + k + 2)
      +. Array.unsafe_get src (s0 + k + 3);
    i := k + 4
  done;
  while !i < n do
    c.v <- c.v +. Array.unsafe_get src (s0 + !i);
    incr i
  done;
  c.v

let reduce1_sum_strided ~src ~s0 ~sstep ~n ~init =
  let c = { v = init } in
  let si = ref s0 in
  for _ = 1 to n do
    c.v <- c.v +. Array.unsafe_get src !si;
    si := !si + sstep
  done;
  c.v

let reduce1_strided ~combine ~src ~s0 ~sstep ~n ~init =
  let c = { v = init } in
  let si = ref s0 in
  for _ = 1 to n do
    c.v <- combine c.v (Array.unsafe_get src !si);
    si := !si + sstep
  done;
  c.v

(* ------------------------------------------------------------------ *)
(* Copy / Scale.  [copy_unit] requires dst != src (Array.blit has
   memmove semantics, the generic loop has forward-propagation semantics
   on overlap — the engine dispatches on physical equality).  The strided
   bodies keep strict per-element read-then-write order, so they are
   safe under any aliasing, exactly like the generic loop. *)

let copy_unit ~dst ~d0 ~src ~s0 ~n = Array.blit src s0 dst d0 n

let copy_strided ~dst ~d0 ~dstep ~src ~s0 ~sstep ~n =
  let di = ref d0 and si = ref s0 in
  for _ = 1 to n do
    Array.unsafe_set dst !di (Array.unsafe_get src !si);
    di := !di + dstep;
    si := !si + sstep
  done

let scale_unit ~dst ~d0 ~src ~s0 ~factor ~n =
  let n4 = n - 3 in
  let i = ref 0 in
  while !i < n4 do
    let k = !i in
    (* per-element read-then-write, forward order: aliasing-safe *)
    Array.unsafe_set dst (d0 + k) (Array.unsafe_get src (s0 + k) *. factor);
    Array.unsafe_set dst (d0 + k + 1) (Array.unsafe_get src (s0 + k + 1) *. factor);
    Array.unsafe_set dst (d0 + k + 2) (Array.unsafe_get src (s0 + k + 2) *. factor);
    Array.unsafe_set dst (d0 + k + 3) (Array.unsafe_get src (s0 + k + 3) *. factor);
    i := k + 4
  done;
  while !i < n do
    let k = !i in
    Array.unsafe_set dst (d0 + k) (Array.unsafe_get src (s0 + k) *. factor);
    i := k + 1
  done

let scale_strided ~dst ~d0 ~dstep ~src ~s0 ~sstep ~factor ~n =
  let di = ref d0 and si = ref s0 in
  for _ = 1 to n do
    Array.unsafe_set dst !di (Array.unsafe_get src !si *. factor);
    di := !di + dstep;
    si := !si + sstep
  done

(* ------------------------------------------------------------------ *)
(* Softmax row.  The generic row stages the source into scratch, takes
   the max, sums exp(x - max), then stores select(c < n, exp(x_c - max)
   / den, fill) — computing every exp twice.  Here each exp is computed
   once and cached in the destination row, which is overwritten with
   the quotient afterwards; exp is deterministic, and the max combines
   as [Float.max cur x] and the sum as [cur +. e] in column order,
   exactly as the generic reductions do, so the result is bitwise the
   same.  Requires dst != src. *)

let softmax_row ~src ~s0 ~sstep ~dst ~d0 ~dstep ~n ~npad ~max_init ~den_init ~fill =
  let c = { v = max_init } in
  let si = ref s0 in
  for _ = 1 to n do
    c.v <- Float.max c.v (Array.unsafe_get src !si);
    si := !si + sstep
  done;
  let mx = c.v in
  c.v <- den_init;
  si := s0;
  let di = ref d0 in
  for _ = 1 to n do
    let e = exp (Array.unsafe_get src !si -. mx) in
    Array.unsafe_set dst !di e;
    c.v <- c.v +. e;
    si := !si + sstep;
    di := !di + dstep
  done;
  let den = c.v in
  di := d0;
  for _ = 1 to n do
    Array.unsafe_set dst !di (Array.unsafe_get dst !di /. den);
    di := !di + dstep
  done;
  for _ = n + 1 to npad do
    Array.unsafe_set dst !di fill;
    di := !di + dstep
  done
