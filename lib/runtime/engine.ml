open Ir

(* Compiled execution engine.  See engine.mli for the contract; the key
   invariant maintained throughout this file is *interpreter parity*: for
   every IR node the compiled closure performs the same float operations
   and stores, in the same order, with the same bounds checks, as the
   corresponding branch of Interp.eval / Interp.exec — that is what makes
   the bitwise differential fuzz in test/test_engine.ml meaningful.
   Scalar work (loads, flops, guards) is counted only by the interpreter. *)

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Persistent domain pool *)

module Pool = struct
  (* One job = one chunked parallel-for.  The atomics live in the job, not
     the pool: a worker that wakes up late simply finds every chunk of the
     old job already claimed and goes back to waiting, so there is no
     generation race on shared counters. *)
  type job = {
    f : int -> unit;
    chunks : int;
    next : int Atomic.t;  (* next chunk index to claim *)
    remaining : int Atomic.t;  (* chunks not yet finished *)
  }

  type t = {
    mutex : Mutex.t;
    work : Condition.t;  (* a new job was published *)
    done_ : Condition.t;  (* a job's last chunk finished *)
    mutable job : job option;
    mutable generation : int;
    mutable stop : bool;
    mutable error : exn option;
    mutable domains : unit Domain.t list;
    parallelism : int;
  }

  let parallelism t = t.parallelism

  let drain t (j : job) =
    let rec loop () =
      let c = Atomic.fetch_and_add j.next 1 in
      if c < j.chunks then begin
        (try j.f c
         with e ->
           Mutex.lock t.mutex;
           (match t.error with None -> t.error <- Some e | Some _ -> ());
           Mutex.unlock t.mutex);
        (* decrement *after* the handler so an exception can't hang [run] *)
        let left = Atomic.fetch_and_add j.remaining (-1) - 1 in
        if left = 0 then begin
          Mutex.lock t.mutex;
          Condition.broadcast t.done_;
          Mutex.unlock t.mutex
        end;
        loop ()
      end
    in
    loop ()

  let worker t =
    let last_gen = ref 0 in
    let rec loop () =
      Mutex.lock t.mutex;
      while (not t.stop) && t.generation = !last_gen do
        Condition.wait t.work t.mutex
      done;
      if t.stop then Mutex.unlock t.mutex
      else begin
        last_gen := t.generation;
        let j = t.job in
        Mutex.unlock t.mutex;
        (match j with Some j -> drain t j | None -> ());
        loop ()
      end
    in
    loop ()

  let create ?(domains = 4) () =
    let t =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        done_ = Condition.create ();
        job = None;
        generation = 0;
        stop = false;
        error = None;
        domains = [];
        parallelism = max 1 domains;
      }
    in
    t.domains <-
      List.init (max 0 (domains - 1)) (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let run t ~chunks (f : int -> unit) =
    if chunks > 0 then begin
      let j = { f; chunks; next = Atomic.make 0; remaining = Atomic.make chunks } in
      Mutex.lock t.mutex;
      t.error <- None;
      t.job <- Some j;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      (* the caller is a worker too: total parallelism = domains *)
      drain t j;
      Mutex.lock t.mutex;
      while Atomic.get j.remaining > 0 do
        Condition.wait t.done_ t.mutex
      done;
      let e = t.error in
      t.job <- None;
      t.error <- None;
      Mutex.unlock t.mutex;
      match e with Some e -> raise e | None -> ()
    end

  let shutdown t =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
end

(* ------------------------------------------------------------------ *)
(* Frames *)

type ufun_binding =
  | U_unbound
  | U_table of int array  (* prelude table: direct indexing *)
  | U_fn of (int -> int)  (* length function *)
  | U_const of int  (* prelude scalar: any arity, like (fun _ -> n) *)
  | U_gen of (int list -> int)

type layout = {
  n_ints : int;
  n_floats : int;
  n_bools : int;
  buf_slots : (int, int) Hashtbl.t;  (* Var.id -> fbuf slot *)
  buf_by_name : (string, int) Hashtbl.t;
      (* display name -> external slot; -1 when the name is ambiguous.
         Compiled kernels are shared across alpha-equivalent bodies (the
         Sig-keyed memo), whose buffer vars carry fresh ids but the same
         deterministic display names — name lookup is the fallback that
         lets a cached kernel be re-bound to another build's tensors. *)
  buf_names : string array;  (* slot -> mangled name, for errors *)
  buf_external : bool array;  (* slot must be bound before run *)
  ufun_slots : (string, int) Hashtbl.t;
  ufun_names : string array;
}

type frame = {
  layout : layout;
  entry : frame -> unit;
  ints : int array;
  floats : float array;
  bools : bool array;
  fbufs : float array array;
  buf_bound : bool array;
  ufuns : ufun_binding array;
  mutable pool : Pool.t option;
}

type compiled = { c_layout : layout; c_entry : frame -> unit }

(* ------------------------------------------------------------------ *)
(* Compilation context: name -> slot resolution, done exactly once *)

type slot = SInt of int | SFloat of int | SBool of int
type ty = TInt | TFloat | TBool

type ctx = {
  opt : int;
  (* optimization level: 0 none, 1 +strength reduction, 2 +microkernels,
     3 +stride-specialized / register-tiled microkernel variants *)
  vars : (int, slot) Hashtbl.t;  (* Var.id -> scalar slot *)
  mutable n_int : int;
  mutable n_float : int;
  mutable n_bool : int;
  c_buf_slots : (int, int) Hashtbl.t;
  mutable bufs_rev : (string * string * bool ref) list;
      (* (mangled, display name, external), newest first *)
  mutable n_buf : int;
  c_ufun_slots : (string, int) Hashtbl.t;
  mutable ufuns_rev : string list;
  mutable n_ufun : int;
}

let new_ctx ?(opt = 0) () =
  {
    opt;
    vars = Hashtbl.create 32;
    n_int = 0;
    n_float = 0;
    n_bool = 0;
    c_buf_slots = Hashtbl.create 16;
    bufs_rev = [];
    n_buf = 0;
    c_ufun_slots = Hashtbl.create 16;
    ufuns_rev = [];
    n_ufun = 0;
  }

(* Scoped variable binding: allocate a fresh slot for [v], compile the scope
   body through [k], then restore whatever [v] meant outside (lowering never
   shadows, but correctness here is one save/restore away, so keep it). *)
let with_var ctx (v : Var.t) ty (k : int -> 'a) : 'a =
  let slot, raw =
    match ty with
    | TInt ->
        let s = ctx.n_int in
        ctx.n_int <- s + 1;
        (SInt s, s)
    | TFloat ->
        let s = ctx.n_float in
        ctx.n_float <- s + 1;
        (SFloat s, s)
    | TBool ->
        let s = ctx.n_bool in
        ctx.n_bool <- s + 1;
        (SBool s, s)
  in
  let prev = Hashtbl.find_opt ctx.vars v.Var.id in
  Hashtbl.replace ctx.vars v.Var.id slot;
  let r = k raw in
  (match prev with
  | Some p -> Hashtbl.replace ctx.vars v.Var.id p
  | None -> Hashtbl.remove ctx.vars v.Var.id);
  r

(* Buffer slot for [v].  [internal] marks Alloc-introduced scratch, which
   needs no binding before run. *)
let buf_slot ?(internal = false) ctx (v : Var.t) : int =
  match Hashtbl.find_opt ctx.c_buf_slots v.Var.id with
  | Some s ->
      if internal then begin
        match List.nth_opt ctx.bufs_rev (ctx.n_buf - 1 - s) with
        | Some (_, _, ext) -> ext := false
        | None -> ()
      end;
      s
  | None ->
      let s = ctx.n_buf in
      ctx.n_buf <- s + 1;
      Hashtbl.add ctx.c_buf_slots v.Var.id s;
      ctx.bufs_rev <- (Var.mangled v, Var.name v, ref (not internal)) :: ctx.bufs_rev;
      s

let ufun_slot ctx name : int =
  match Hashtbl.find_opt ctx.c_ufun_slots name with
  | Some s -> s
  | None ->
      let s = ctx.n_ufun in
      ctx.n_ufun <- s + 1;
      Hashtbl.add ctx.c_ufun_slots name s;
      ctx.ufuns_rev <- name :: ctx.ufuns_rev;
      s

let finalize ctx : layout =
  let bufs = Array.of_list (List.rev ctx.bufs_rev) in
  let buf_by_name = Hashtbl.create (Array.length bufs) in
  Array.iteri
    (fun slot (_, name, ext) ->
      if !ext then
        match Hashtbl.find_opt buf_by_name name with
        | None -> Hashtbl.replace buf_by_name name slot
        | Some _ -> Hashtbl.replace buf_by_name name (-1) (* ambiguous: id-only *))
    bufs;
  {
    n_ints = ctx.n_int;
    n_floats = ctx.n_float;
    n_bools = ctx.n_bool;
    buf_slots = ctx.c_buf_slots;
    buf_by_name;
    buf_names = Array.map (fun (m, _, _) -> m) bufs;
    buf_external = Array.map (fun (_, _, e) -> !e) bufs;
    ufun_slots = ctx.c_ufun_slots;
    ufun_names = Array.of_list (List.rev ctx.ufuns_rev);
  }

(* ------------------------------------------------------------------ *)
(* Expression compilation: staged, unboxed per scalar type *)

type cexpr =
  | CInt of (frame -> int)
  | CFloat of (frame -> float)
  | CBool of (frame -> bool)

let as_int = function
  | CInt f -> f
  | CFloat f -> fun fr -> int_of_float (f fr)
  | CBool _ -> err "expected int, got bool"

let as_float = function
  | CFloat f -> f
  | CInt f -> fun fr -> float_of_int (f fr)
  | CBool _ -> err "expected float, got bool"

let as_bool = function
  | CBool f -> f
  | CInt _ | CFloat _ -> err "expected bool, got a scalar"

(* Slot accesses use unsafe_get/set: indices are compiler-assigned, in range
   by construction.  Buffer element accesses keep explicit bounds checks with
   interpreter-identical error messages. *)

let compile_binop (op : Expr.binop) ca cb : cexpr =
  match (op, ca, cb) with
  | Expr.Add, CInt fa, CInt fb -> CInt (fun fr -> fa fr + fb fr)
  | Expr.Sub, CInt fa, CInt fb -> CInt (fun fr -> fa fr - fb fr)
  | Expr.Mul, CInt fa, CInt fb -> CInt (fun fr -> fa fr * fb fr)
  | Expr.Min, CInt fa, CInt fb ->
      CInt
        (fun fr ->
          let x = fa fr in
          let y = fb fr in
          if x <= y then x else y)
  | Expr.Max, CInt fa, CInt fb ->
      CInt
        (fun fr ->
          let x = fa fr in
          let y = fb fr in
          if x >= y then x else y)
  | Expr.FloorDiv, CInt fa, CInt fb ->
      CInt
        (fun fr ->
          let x = fa fr in
          let y = fb fr in
          if y = 0 then err "division by zero"
          else if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1
          else x / y)
  | Expr.Mod, CInt fa, CInt fb ->
      CInt
        (fun fr ->
          let x = fa fr in
          let y = fb fr in
          if y = 0 then err "mod by zero"
          else
            let r = x mod y in
            if r <> 0 && (r < 0) <> (y < 0) then r + y else r)
  | (Expr.FloorDiv | Expr.Mod), _, _ -> err "floordiv/mod on floats"
  | (Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Min | Expr.Max), _, _ ->
      (* float path; Div is float even on int operands, like the interpreter *)
      let fa = as_float ca and fb = as_float cb in
      let lift f =
        CFloat
          (fun fr ->
            let x = fa fr in
            let y = fb fr in
            f x y)
      in
      (match op with
      | Expr.Add -> lift ( +. )
      | Expr.Sub -> lift ( -. )
      | Expr.Mul -> lift ( *. )
      | Expr.Div -> lift ( /. )
      | Expr.Min -> lift Float.min
      | Expr.Max -> lift Float.max
      | Expr.FloorDiv | Expr.Mod -> assert false)

let compile_cmp (op : Expr.cmpop) ca cb : cexpr =
  match (ca, cb) with
  | CBool _, _ | _, CBool _ -> err "expected int, got bool"
  | (CFloat _, _ | _, CFloat _) ->
      (* Float.compare, not (<): NaN ordering must match the interpreter *)
      let fa = as_float ca and fb = as_float cb in
      let lift test = CBool (fun fr -> test (Float.compare (fa fr) (fb fr)) 0) in
      (match op with
      | Expr.Lt -> lift ( < )
      | Expr.Le -> lift ( <= )
      | Expr.Gt -> lift ( > )
      | Expr.Ge -> lift ( >= )
      | Expr.Eq -> lift ( = )
      | Expr.Ne -> lift ( <> ))
  | CInt fa, CInt fb -> (
      match op with
      | Expr.Lt -> CBool (fun fr -> fa fr < fb fr)
      | Expr.Le -> CBool (fun fr -> fa fr <= fb fr)
      | Expr.Gt -> CBool (fun fr -> fa fr > fb fr)
      | Expr.Ge -> CBool (fun fr -> fa fr >= fb fr)
      | Expr.Eq -> CBool (fun fr -> fa fr = fb fr)
      | Expr.Ne -> CBool (fun fr -> fa fr <> fb fr))

(* Linear integer forms (opt >= 1): an int expression built from int
   literals, int variables, [+], [-] and [*] by a literal is
   [c + k1*v1 + ... + kn*vn], and compiles to one closure instead of one
   per node — the index arithmetic tiled nests evaluate at every block
   entry.  Exact: int arithmetic is modular, so regrouping the terms
   cannot change the value.  [None] when any leaf is something else. *)
let linear_form ctx (e : Expr.t) : (int * (int * int) list) option =
  let exception Not_linear in
  let rec go k (e : Expr.t) ((c, terms) as acc) =
    match e with
    | Int n -> (c + (k * n), terms)
    | Var v -> (
        match Hashtbl.find_opt ctx.vars v.Var.id with
        | Some (SInt s) ->
            let k0 = Option.value (List.assoc_opt s terms) ~default:0 in
            (c, (s, k0 + k) :: List.remove_assoc s terms)
        | _ -> raise Not_linear)
    | Binop (Add, a, b) -> go k b (go k a acc)
    | Binop (Sub, a, b) -> go (-k) b (go k a acc)
    | Binop (Mul, a, b) -> (
        match (Optimize.const_of a, Optimize.const_of b) with
        | Some n, _ -> go (k * n) b acc
        | _, Some n -> go (k * n) a acc
        | None, None -> raise Not_linear)
    | _ -> raise Not_linear
  in
  match go 1 e (0, []) with
  | c, terms -> Some (c, List.rev (List.filter (fun (_, k) -> k <> 0) terms))
  | exception Not_linear -> None

let compile_linear c terms : cexpr =
  match terms with
  | [] -> CInt (fun _ -> c)
  | [ (s, k) ] -> CInt (fun fr -> c + (k * Array.unsafe_get fr.ints s))
  | [ (s1, k1); (s2, k2) ] ->
      CInt (fun fr -> c + (k1 * Array.unsafe_get fr.ints s1) + (k2 * Array.unsafe_get fr.ints s2))
  | [ (s1, k1); (s2, k2); (s3, k3) ] ->
      CInt
        (fun fr ->
          let ints = fr.ints in
          c
          + (k1 * Array.unsafe_get ints s1)
          + (k2 * Array.unsafe_get ints s2)
          + (k3 * Array.unsafe_get ints s3))
  | terms ->
      let slots = Array.of_list (List.map fst terms) in
      let ks = Array.of_list (List.map snd terms) in
      CInt
        (fun fr ->
          let v = ref c in
          for i = 0 to Array.length slots - 1 do
            v := !v + (Array.unsafe_get ks i * Array.unsafe_get fr.ints (Array.unsafe_get slots i))
          done;
          !v)

let rec compile_expr ctx (e : Expr.t) : cexpr =
  match e with
  | Int n -> CInt (fun _ -> n)
  | Float f -> CFloat (fun _ -> f)
  | Bool b -> CBool (fun _ -> b)
  | Var v -> (
      match Hashtbl.find_opt ctx.vars v.Var.id with
      | Some (SInt s) -> CInt (fun fr -> Array.unsafe_get fr.ints s)
      | Some (SFloat s) -> CFloat (fun fr -> Array.unsafe_get fr.floats s)
      | Some (SBool s) -> CBool (fun fr -> Array.unsafe_get fr.bools s)
      | None -> err "unbound variable %s" (Var.mangled v))
  | Binop (op, a, b) -> (
      match if ctx.opt >= 1 then linear_form ctx e else None with
      | Some (c, terms) -> compile_linear c terms
      | None -> compile_binop op (compile_expr ctx a) (compile_expr ctx b))
  | Cmp (op, a, b) -> compile_cmp op (compile_expr ctx a) (compile_expr ctx b)
  | And (a, b) ->
      let fa = as_bool (compile_expr ctx a) and fb = as_bool (compile_expr ctx b) in
      CBool (fun fr -> fa fr && fb fr)
  | Or (a, b) ->
      let fa = as_bool (compile_expr ctx a) and fb = as_bool (compile_expr ctx b) in
      CBool (fun fr -> fa fr || fb fr)
  | Not a ->
      let fa = as_bool (compile_expr ctx a) in
      CBool (fun fr -> not (fa fr))
  | Select (c, a, b) -> (
      let fc = as_bool (compile_expr ctx c) in
      let ca = compile_expr ctx a and cb = compile_expr ctx b in
      match (ca, cb) with
      | CInt fa, CInt fb -> CInt (fun fr -> if fc fr then fa fr else fb fr)
      | CBool fa, CBool fb -> CBool (fun fr -> if fc fr then fa fr else fb fr)
      | (CInt _ | CFloat _), (CInt _ | CFloat _) ->
          let fa = as_float ca and fb = as_float cb in
          CFloat (fun fr -> if fc fr then fa fr else fb fr)
      | _ -> err "select branches have mismatched types")
  | Load { buf = v; index } ->
      let slot = buf_slot ctx v in
      let name = Var.mangled v in
      let fi = as_int (compile_expr ctx index) in
      CFloat
        (fun fr ->
          let a = Array.unsafe_get fr.fbufs slot in
          let i = fi fr in
          if i < 0 || i >= Array.length a then
            err "load %s[%d] out of bounds (len %d)" name i (Array.length a)
          else Array.unsafe_get a i)
  | Ufun (name, args) -> compile_ufun ctx name args
  | Call (name, args) -> compile_call ctx name args
  | Access { tensor; _ } -> err "unlowered tensor access to %s reached the engine" tensor
  | Let (v, value, body) -> (
      let cv = compile_expr ctx value in
      let ty = match cv with CInt _ -> TInt | CFloat _ -> TFloat | CBool _ -> TBool in
      with_var ctx v ty @@ fun slot ->
      let set : frame -> unit =
        match cv with
        | CInt f -> fun fr -> Array.unsafe_set fr.ints slot (f fr)
        | CFloat f -> fun fr -> Array.unsafe_set fr.floats slot (f fr)
        | CBool f -> fun fr -> Array.unsafe_set fr.bools slot (f fr)
      in
      match compile_expr ctx body with
      | CInt f ->
          CInt
            (fun fr ->
              set fr;
              f fr)
      | CFloat f ->
          CFloat
            (fun fr ->
              set fr;
              f fr)
      | CBool f ->
          CBool
            (fun fr ->
              set fr;
              f fr))

and compile_ufun ctx name args : cexpr =
  let slot = ufun_slot ctx name in
  match args with
  | [ a ] ->
      (* the hot path: one arg, direct table indexing *)
      let fi = as_int (compile_expr ctx a) in
      CInt
        (fun fr ->
          let i = fi fr in
          match Array.unsafe_get fr.ufuns slot with
          | U_table t ->
              if i < 0 || i >= Array.length t then
                err "ufun %s: index %d out of bounds (len %d)" name i (Array.length t)
              else Array.unsafe_get t i
          | U_fn f -> f i
          | U_const n -> n
          | U_gen f -> f [ i ]
          | U_unbound -> err "unbound uninterpreted function %s" name)
  | [] ->
      CInt
        (fun fr ->
          match Array.unsafe_get fr.ufuns slot with
          | U_const n -> n
          | U_gen f -> f []
          | U_table _ | U_fn _ -> err "ufun %s: arity mismatch (0 args)" name
          | U_unbound -> err "unbound uninterpreted function %s" name)
  | args ->
      let fis = List.map (fun a -> as_int (compile_expr ctx a)) args in
      let nargs = List.length args in
      CInt
        (fun fr ->
          let l = List.map (fun f -> f fr) fis in
          match Array.unsafe_get fr.ufuns slot with
          | U_gen f -> f l
          | U_const n -> n
          | U_table _ | U_fn _ -> err "ufun %s: arity mismatch (%d args)" name nargs
          | U_unbound -> err "unbound uninterpreted function %s" name)

and compile_call ctx name args : cexpr =
  (* intrinsics resolve at compile time *)
  let cargs = List.map (fun a -> as_float (compile_expr ctx a)) args in
  let unary f =
    match cargs with
    | [ fa ] -> CFloat (fun fr -> f (fa fr))
    | _ -> err "unknown intrinsic %s/%d" name (List.length cargs)
  in
  match name with
  | "exp" -> unary exp
  | "log" -> unary log
  | "sqrt" -> unary sqrt
  | "tanh" -> unary tanh
  | "erf" -> unary Interp.erf_approx
  | "relu" -> unary (Float.max 0.0)
  | "neg_infinity" -> (
      match cargs with
      | [] -> CFloat (fun _ -> neg_infinity)
      | _ -> err "unknown intrinsic %s/%d" name (List.length cargs))
  | _ -> err "unknown intrinsic %s/%d" name (List.length cargs)

(* ------------------------------------------------------------------ *)
(* Statement compilation *)

(* Chunk boundaries balancing per-iteration [weights] across [k] chunks:
   returns [k + 1] nondecreasing offsets with [bounds.(0) = 0] and
   [bounds.(k) = n]; every chunk is contiguous and (for k <= n) nonempty.
   Greedy by weight prefix: cut as soon as a chunk's proportional quota is
   met, while always leaving at least one iteration per remaining chunk —
   so one heavily ragged row cannot drag the whole tail into one chunk. *)
let balance_chunks (ws : int array) k : int array =
  let n = Array.length ws in
  let k = max 1 (min k n) in
  let total = max 1 (Array.fold_left ( + ) 0 ws) in
  let bounds = Array.make (k + 1) n in
  bounds.(0) <- 0;
  let c = ref 1 and acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + ws.(i);
    while
      !c < k && !acc * k >= !c * total && n - (i + 1) >= k - !c && bounds.(!c - 1) <= i
    do
      bounds.(!c) <- i + 1;
      incr c
    done
  done;
  while !c < k do
    bounds.(!c) <- max bounds.(!c - 1) (n - (k - !c));
    incr c
  done;
  bounds

(* Parallel chunk execution: scalar state is copied per chunk (loop
   iterations write disjoint buffer locations, per the Parallel-binding
   contract) and the buffer slot table is shallow-copied so Alloc scratch
   stays chunk-local.

   Chunks are sized by [est] (a per-iteration cost estimate compiled from
   the loop body) when available, so a handful of long ragged rows no
   longer starves the other domains; without an estimate the split is by
   iteration count.  The estimate writes only its own scalar slots and
   the loop variable's, which every chunk overwrites before use. *)
let run_parallel pool (fr : frame) slot m n ?est (cbody : frame -> unit) =
  let chunks = min n (Pool.parallelism pool * 4) in
  let bounds =
    match est with
    | None ->
        let csize = (n + chunks - 1) / chunks in
        Array.init (chunks + 1) (fun c -> min n (c * csize))
    | Some est ->
        let ws =
          Array.init n (fun j ->
              Array.unsafe_set fr.ints slot (m + j);
              (* an estimate that fails (an engine [Error]) weighs 1 *)
              try Int.max 1 (est fr) with Error _ -> 1)
        in
        balance_chunks ws chunks
  in
  let ti = Array.copy fr.ints
  and tf = Array.copy fr.floats
  and tb = Array.copy fr.bools in
  Pool.run pool ~chunks (fun c ->
      let lo = m + bounds.(c) in
      let hi = m + bounds.(c + 1) - 1 in
      if lo <= hi then begin
        let w =
          {
            fr with
            ints = Array.copy ti;
            floats = Array.copy tf;
            bools = Array.copy tb;
            fbufs = Array.copy fr.fbufs;
            pool = None (* no nested parallelism *);
          }
        in
        for i = lo to hi do
          Array.unsafe_set w.ints slot i;
          cbody w
        done
      end)

(* ------------------------------------------------------------------ *)
(* Microkernels (opt >= 2).  An innermost loop whose body matches one of
   the Optimize.classify_inner shapes compiles to a tight float-array loop
   with running (strength-reduced) offsets and a register accumulator — no
   per-element slot traffic, no per-element closure calls, no per-element
   bounds checks.  Bitwise parity holds because the float operation
   sequence is exactly the interpreter's: reductions combine into the same
   cell in the same order (kept in a register, legal because nothing else
   reads or writes the cell mid-loop — enforced by the dst/src aliasing
   dispatch), and element-wise loops process elements in the same order.
   Bounds checks are hoisted to block entry, once per (m, n) block and
   before variant dispatch: a linear index sequence is in bounds iff its
   two endpoints are (divergence only on error paths).

   At opt >= 3 the loop body is selected from the Microkernel registry
   when the closure is built — Optimize.classify_stride decides between
   the unit-stride (unrolled / Array.blit) and strided variants, and
   Optimize.classify_nest upgrades a two-deep dot nest to the
   register-tiled kernel.  The generic opt-2 loop remains the fallback
   for aliased destinations.  Each kernel keeps one order-preserving
   accumulator chain per destination element (unrolling never
   reassociates a chain), so outputs stay bitwise-identical. *)

let check_lin ~what ~name arr i0 i1 =
  let lo = if i0 <= i1 then i0 else i1 in
  let hi = if i0 <= i1 then i1 else i0 in
  if lo < 0 || hi >= Array.length arr then
    err "%s %s[%d] out of bounds (len %d)" what name
      (if lo < 0 then lo else hi)
      (Array.length arr)

let combine_of = function
  | Stmt.Sum -> ( +. )
  | Stmt.Prod -> ( *. )
  | Stmt.Rmax -> Float.max
  | Stmt.Rmin -> Float.min

(* Shared Sum dispatch for the reduction microkernels: [None] selects the
   Sum fast path (a direct [+.] loop, no per-element closure call),
   [Some combine] the general loop.  One dispatch point shared by the Dot
   and Reduce1 patterns instead of a per-pattern [is_sum] split; bitwise
   transparent because [combine_of Sum] is [( +. )]. *)
let sum_fast = function Stmt.Sum -> None | op -> Some (combine_of op)

let compile_affine ctx (ax : Optimize.affine) =
  (as_int (compile_expr ctx ax.Optimize.base), as_int (compile_expr ctx ax.Optimize.stride))

(* Variant-selection accounting: [engine.mk_variant.<name>] counts how
   many compiled loops bound each microkernel variant.  Bumped once at
   closure-build time — where selection happens — never per call. *)
let note_variant name =
  Obs.Metrics.incr (Obs.Metrics.counter ("engine.mk_variant." ^ name))

(* The one runtime signal: [engine.mk_fallback] counts microkernel blocks
   that took the generic loop instead (aliased destination, zero
   destination stride, zero-trip reduction). *)
let mk_fallback_c = Obs.Metrics.counter "engine.mk_fallback"

let fall_back fallback fr m n =
  Obs.Metrics.incr mk_fallback_c;
  fallback fr m n

(* [emit_inner ctx pattern] returns [fallback -> frame -> m -> n -> unit];
   the fallback (the generic compiled loop) runs when the destination
   aliases an input, where register accumulation would diverge.  Callers
   guarantee n > 0.  The per-block wrapper always does the same three
   things in order — aliasing dispatch, hoisted endpoint bounds checks,
   then the variant body selected at closure-build time. *)
let emit_inner ctx (p : Optimize.inner) :
    (frame -> int -> int -> unit) -> frame -> int -> int -> unit =
  match p with
  | Optimize.Dot { dst; dst_idx; op; a; a_ix; b; b_ix } ->
      let dslot = buf_slot ctx dst and aslot = buf_slot ctx a and bslot = buf_slot ctx b in
      let dname = Var.mangled dst and aname = Var.mangled a and bname = Var.mangled b in
      let fdi = as_int (compile_expr ctx dst_idx) in
      let fab, fas = compile_affine ctx a_ix in
      let fbb, fbs = compile_affine ctx b_ix in
      let sum = sum_fast op in
      let body : float array -> float array -> float array -> int -> int -> int -> int -> int -> int -> unit =
        if ctx.opt >= 3 then
          match (sum, Optimize.classify_stride a_ix, Optimize.classify_stride b_ix) with
          | None, Optimize.S_unit, Optimize.S_unit ->
              note_variant "dot.sum_u4";
              fun darr aarr barr di a0 _astep b0 _bstep n ->
                Array.unsafe_set darr di
                  (Microkernel.dot_sum_unit ~a:aarr ~a0 ~b:barr ~b0 ~n
                     ~init:(Array.unsafe_get darr di))
          | None, _, _ ->
              note_variant "dot.sum_s4";
              fun darr aarr barr di a0 astep b0 bstep n ->
                Array.unsafe_set darr di
                  (Microkernel.dot_sum_strided ~a:aarr ~a0 ~astep ~b:barr ~b0 ~bstep ~n
                     ~init:(Array.unsafe_get darr di))
          | Some combine, _, _ ->
              note_variant "dot.combine_s";
              fun darr aarr barr di a0 astep b0 bstep n ->
                Array.unsafe_set darr di
                  (Microkernel.dot_strided ~combine ~a:aarr ~a0 ~astep ~b:barr ~b0 ~bstep
                     ~n ~init:(Array.unsafe_get darr di))
        else begin
          note_variant "dot.generic";
          match sum with
          | None ->
              fun darr aarr barr di a0 astep b0 bstep n ->
                let acc = ref (Array.unsafe_get darr di) in
                let ai = ref a0 and bi = ref b0 in
                for _ = 1 to n do
                  acc := !acc +. (Array.unsafe_get aarr !ai *. Array.unsafe_get barr !bi);
                  ai := !ai + astep;
                  bi := !bi + bstep
                done;
                Array.unsafe_set darr di !acc
          | Some combine ->
              fun darr aarr barr di a0 astep b0 bstep n ->
                let acc = ref (Array.unsafe_get darr di) in
                let ai = ref a0 and bi = ref b0 in
                for _ = 1 to n do
                  acc := combine !acc (Array.unsafe_get aarr !ai *. Array.unsafe_get barr !bi);
                  ai := !ai + astep;
                  bi := !bi + bstep
                done;
                Array.unsafe_set darr di !acc
        end
      in
      fun fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let aarr = Array.unsafe_get fr.fbufs aslot in
        let barr = Array.unsafe_get fr.fbufs bslot in
        if darr == aarr || darr == barr then fall_back fallback fr m n
        else begin
          let di = fdi fr in
          let astep = fas fr in
          let a0 = fab fr + (m * astep) in
          let bstep = fbs fr in
          let b0 = fbb fr + (m * bstep) in
          if di < 0 || di >= Array.length darr then
            err "reduce_store %s[%d] out of bounds (len %d)" dname di (Array.length darr);
          check_lin ~what:"load" ~name:aname aarr a0 (a0 + ((n - 1) * astep));
          check_lin ~what:"load" ~name:bname barr b0 (b0 + ((n - 1) * bstep));
          body darr aarr barr di a0 astep b0 bstep n
        end
  | Optimize.Reduce1 { dst; dst_idx; op; src; src_ix } ->
      let dslot = buf_slot ctx dst and sslot = buf_slot ctx src in
      let dname = Var.mangled dst and sname = Var.mangled src in
      let fdi = as_int (compile_expr ctx dst_idx) in
      let fsb, fss = compile_affine ctx src_ix in
      let sum = sum_fast op in
      let body : float array -> float array -> int -> int -> int -> int -> unit =
        if ctx.opt >= 3 then
          match (sum, Optimize.classify_stride src_ix) with
          | None, Optimize.S_unit ->
              note_variant "reduce1.sum_u4";
              fun darr sarr di s0 _sstep n ->
                Array.unsafe_set darr di
                  (Microkernel.reduce1_sum_unit ~src:sarr ~s0 ~n
                     ~init:(Array.unsafe_get darr di))
          | None, _ ->
              note_variant "reduce1.sum_s";
              fun darr sarr di s0 sstep n ->
                Array.unsafe_set darr di
                  (Microkernel.reduce1_sum_strided ~src:sarr ~s0 ~sstep ~n
                     ~init:(Array.unsafe_get darr di))
          | Some combine, _ ->
              note_variant "reduce1.combine_s";
              fun darr sarr di s0 sstep n ->
                Array.unsafe_set darr di
                  (Microkernel.reduce1_strided ~combine ~src:sarr ~s0 ~sstep ~n
                     ~init:(Array.unsafe_get darr di))
        else begin
          note_variant "reduce1.generic";
          match sum with
          | None ->
              fun darr sarr di s0 sstep n ->
                let acc = ref (Array.unsafe_get darr di) in
                let si = ref s0 in
                for _ = 1 to n do
                  acc := !acc +. Array.unsafe_get sarr !si;
                  si := !si + sstep
                done;
                Array.unsafe_set darr di !acc
          | Some combine ->
              fun darr sarr di s0 sstep n ->
                let acc = ref (Array.unsafe_get darr di) in
                let si = ref s0 in
                for _ = 1 to n do
                  acc := combine !acc (Array.unsafe_get sarr !si);
                  si := !si + sstep
                done;
                Array.unsafe_set darr di !acc
        end
      in
      fun fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let sarr = Array.unsafe_get fr.fbufs sslot in
        if darr == sarr then fall_back fallback fr m n
        else begin
          let di = fdi fr in
          let sstep = fss fr in
          let s0 = fsb fr + (m * sstep) in
          if di < 0 || di >= Array.length darr then
            err "reduce_store %s[%d] out of bounds (len %d)" dname di (Array.length darr);
          check_lin ~what:"load" ~name:sname sarr s0 (s0 + ((n - 1) * sstep));
          body darr sarr di s0 sstep n
        end
  | Optimize.Copy { dst; dst_ix; src; src_ix } ->
      let dslot = buf_slot ctx dst and sslot = buf_slot ctx src in
      let dname = Var.mangled dst and sname = Var.mangled src in
      let fdb, fds = compile_affine ctx dst_ix in
      let fsb, fss = compile_affine ctx src_ix in
      let body : float array -> float array -> int -> int -> int -> int -> int -> unit =
        if ctx.opt >= 3 then
          match (Optimize.classify_stride dst_ix, Optimize.classify_stride src_ix) with
          | Optimize.S_unit, Optimize.S_unit ->
              note_variant "copy.blit";
              fun darr sarr d0 _dstep s0 _sstep n ->
                (* blit has memmove semantics; the generic loop forward-
                   propagates on overlap, so same-array copies take the
                   order-preserving strided body instead *)
                if darr != sarr then Microkernel.copy_unit ~dst:darr ~d0 ~src:sarr ~s0 ~n
                else Microkernel.copy_strided ~dst:darr ~d0 ~dstep:1 ~src:sarr ~s0 ~sstep:1 ~n
          | _ ->
              note_variant "copy.strided";
              fun darr sarr d0 dstep s0 sstep n ->
                Microkernel.copy_strided ~dst:darr ~d0 ~dstep ~src:sarr ~s0 ~sstep ~n
        else begin
          note_variant "copy.generic";
          (* element order matches the generic loop, so aliasing is fine *)
          fun darr sarr d0 dstep s0 sstep n ->
            let di = ref d0 and si = ref s0 in
            for _ = 1 to n do
              Array.unsafe_set darr !di (Array.unsafe_get sarr !si);
              di := !di + dstep;
              si := !si + sstep
            done
        end
      in
      fun _fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let sarr = Array.unsafe_get fr.fbufs sslot in
        let dstep = fds fr in
        let d0 = fdb fr + (m * dstep) in
        let sstep = fss fr in
        let s0 = fsb fr + (m * sstep) in
        check_lin ~what:"store" ~name:dname darr d0 (d0 + ((n - 1) * dstep));
        check_lin ~what:"load" ~name:sname sarr s0 (s0 + ((n - 1) * sstep));
        body darr sarr d0 dstep s0 sstep n
  | Optimize.Scale { dst; dst_ix; src; src_ix; factor } ->
      let dslot = buf_slot ctx dst and sslot = buf_slot ctx src in
      let dname = Var.mangled dst and sname = Var.mangled src in
      let fdb, fds = compile_affine ctx dst_ix in
      let fsb, fss = compile_affine ctx src_ix in
      let body : float array -> float array -> int -> int -> int -> int -> int -> unit =
        if ctx.opt >= 3 then
          match (Optimize.classify_stride dst_ix, Optimize.classify_stride src_ix) with
          | Optimize.S_unit, Optimize.S_unit ->
              note_variant "scale.u4";
              fun darr sarr d0 _dstep s0 _sstep n ->
                Microkernel.scale_unit ~dst:darr ~d0 ~src:sarr ~s0 ~factor ~n
          | _ ->
              note_variant "scale.strided";
              fun darr sarr d0 dstep s0 sstep n ->
                Microkernel.scale_strided ~dst:darr ~d0 ~dstep ~src:sarr ~s0 ~sstep ~factor ~n
        else begin
          note_variant "scale.generic";
          fun darr sarr d0 dstep s0 sstep n ->
            let di = ref d0 and si = ref s0 in
            for _ = 1 to n do
              Array.unsafe_set darr !di (Array.unsafe_get sarr !si *. factor);
              di := !di + dstep;
              si := !si + sstep
            done
        end
      in
      fun _fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let sarr = Array.unsafe_get fr.fbufs sslot in
        let dstep = fds fr in
        let d0 = fdb fr + (m * dstep) in
        let sstep = fss fr in
        let s0 = fsb fr + (m * sstep) in
        check_lin ~what:"store" ~name:dname darr d0 (d0 + ((n - 1) * dstep));
        check_lin ~what:"load" ~name:sname sarr s0 (s0 + ((n - 1) * sstep));
        body darr sarr d0 dstep s0 sstep n

(* [emit_nest ctx ~slot nest] register-tiles a two-deep Sum-dot nest
   (opt >= 3): four destination elements per pass, the shared operand
   loaded once per reduction step.  Each destination keeps its own
   order-preserving accumulator chain (the chains are independent), so
   tiling cannot perturb float results.  [slot] is the tile variable's
   frame slot, set before an init or epilogue expression reads it.

   Operation splitting (CoRa's peeling of the ragged boundary).
   Optimize.classify_nest sorted the guard and mask conjuncts into
   tile-var-invariant ones and affine limits; at block entry each is
   evaluated once, in source order, narrowing [m, m+n) to the prefix
   where it holds.  Cells past the guard prefix are untouched; inside
   it, the mask prefix runs plain tile4 tiles with no per-cell
   evaluation, and the peeled rest runs zero chains.

   A zero chain is one whose mask is false for every k: init plus nk
   zero adds.  Masked dots ([Select (mask, a*b, +0.)] reduction values)
   use the zero-add identity: [acc +. +0.] equals [acc] except that
   [-0. +. +0.] is [+0.], so skipping a {e tail} of masked-out steps is
   exact after clearing a possible [-0.] accumulator — [fix_tail].  A
   [k < bound] conjunct truncates every chain to [nk_eff] real steps
   plus a fixed tail.  Skipped steps also skip their operand loads —
   safe, because [Select] never evaluates the untaken branch in the
   generic engine or the interpreter either.  The generic nest runs the
   epilogue after every chain, zero chains included, and so does this
   one; an [Epi_scale] epilogue is folded into the cell store.

   Falls back to the generic tile loop when the reduction runs zero
   iterations, when the destination aliases an operand or an init /
   epilogue input, or when the destination stride is zero (the chains
   would collapse onto one cell).  Bounds checks are endpoint checks per
   processed range — none for cells the guard skips, and no operand
   checks for zero chains. *)
let neg_zero_bits = Int64.bits_of_float (-0.0)

(* acc +. (+0.) == acc except -0. +. +0. == +0. — applying this once
   replays a whole tail of masked-out adds *)
let[@inline] fix_tail v = if Int64.equal (Int64.bits_of_float v) neg_zero_bits then 0.0 else v

(* floor division by a positive divisor *)
let fdiv a b = if a >= 0 then a / b else -((b - 1 - a) / b)

type ccond =
  | C_inv of (frame -> bool)
  | C_lim of { base : frame -> int; stride : int; bound : frame -> int }

let compile_cond ctx = function
  | Optimize.Inv c -> C_inv (as_bool (compile_expr ctx c))
  | Optimize.Lim { base; stride; bound } ->
      C_lim
        { base = as_int (compile_expr ctx base); stride; bound = as_int (compile_expr ctx bound) }

(* The end of the prefix of [lo, hi) where every conjunct holds (empty
   when [<= lo]): [base + stride*j < bound] with [stride > 0] is
   [j <= floor ((bound - base - 1) / stride)].  Conjuncts are evaluated
   in source order and no further once the prefix is empty, as the
   generic path's short-circuit [&&] would for every j. *)
let narrow conds fr lo hi =
  let hi = ref hi and i = ref 0 in
  while !i < Array.length conds && lo < !hi do
    (match Array.unsafe_get conds !i with
    | C_inv f -> if not (f fr) then hi := lo
    | C_lim { base; stride; bound } ->
        let d = bound fr - base fr in
        (* no hardware division for the usual unit stride *)
        let h = if stride = 1 then d else fdiv (d - 1) stride + 1 in
        if h < !hi then hi := h);
    incr i
  done;
  !hi

(* some init / epilogue input bound to the destination array *)
let rec aliases fr darr slots i =
  i < Array.length slots
  && (Array.unsafe_get fr.fbufs (Array.unsafe_get slots i) == darr || aliases fr darr slots (i + 1))

type init_kind = I_cell | I_const of float | I_expr of (frame -> float)
type epi_kind = E_none | E_scale of float | E_store of (frame -> unit)

(* What a tiled nest fixes when its closure is built ... *)
type nest_static = {
  slot : int;  (* the tile var's frame slot *)
  init_k : init_kind;
  epi_k : epi_kind;
  shared_left : bool;
  dname : string;
  sname : string;
  mname : string;
}

(* ... and what it resolves at block entry.  The cell helpers below take
   the block whole, so a block allocates this record rather than one
   closure per helper. *)
type nest_block = {
  st : nest_static;
  fr : frame;
  darr : float array;
  db : int;  (* cell j lives at db + j*dstep *)
  dstep : int;
  sarr : float array;
  s0 : int;
  ss : int;
  marr : float array;
  mb : int;  (* chain j's moving operand starts at mb + j*mjs *)
  mjs : int;
  mks : int;
  nk_eff : int;
  tail : int;  (* masked-out zero adds after the real products *)
}

(* accumulator start value of chain j *)
let[@inline] cell_init b j dj =
  match b.st.init_k with
  | I_const c -> c
  | I_cell -> Array.unsafe_get b.darr dj
  | I_expr f ->
      Array.unsafe_set b.fr.ints b.st.slot j;
      f b.fr

(* store chain j's finished value, then run its epilogue *)
let[@inline] cell_store b j dj v =
  let v = if b.tail > 0 then fix_tail v else v in
  match b.st.epi_k with
  | E_none -> Array.unsafe_set b.darr dj v
  | E_scale c -> Array.unsafe_set b.darr dj (v *. c)
  | E_store f ->
      Array.unsafe_set b.darr dj v;
      Array.unsafe_set b.fr.ints b.st.slot j;
      f b.fr

let check_cells b lo cnt =
  let dlo = b.db + (lo * b.dstep) in
  check_lin ~what:"reduce_store" ~name:b.st.dname b.darr dlo (dlo + ((cnt - 1) * b.dstep))

(* zero chains for cells [lo, hi): no operand access, no operand checks *)
let nest_zeros b lo hi =
  if lo < hi then begin
    check_cells b lo (hi - lo);
    for j = lo to hi - 1 do
      let dj = b.db + (j * b.dstep) in
      cell_store b j dj (fix_tail (cell_init b j dj))
    done
  end

(* dot chains for cells [lo, hi): tiles of four, then single chains *)
let nest_dots b lo hi =
  let cnt = hi - lo in
  if cnt > 0 then begin
    check_cells b lo cnt;
    let nk = b.nk_eff in
    if nk > 0 then begin
      check_lin ~what:"load" ~name:b.st.sname b.sarr b.s0 (b.s0 + ((nk - 1) * b.ss));
      let mlo = b.mb + (lo * b.mjs) in
      let jspan = (cnt - 1) * b.mjs and kspan = (nk - 1) * b.mks in
      check_lin ~what:"load" ~name:b.st.mname b.marr
        (mlo + Int.min 0 jspan + Int.min 0 kspan)
        (mlo + Int.max 0 jspan + Int.max 0 kspan)
    end;
    let acc = { Microkernel.x0 = 0.0; x1 = 0.0; x2 = 0.0; x3 = 0.0 } in
    let j = ref lo in
    while !j + 3 < hi do
      let j0 = !j in
      let dj = b.db + (j0 * b.dstep) in
      let dj1 = dj + b.dstep in
      let dj2 = dj1 + b.dstep in
      let dj3 = dj2 + b.dstep in
      acc.x0 <- cell_init b j0 dj;
      acc.x1 <- cell_init b (j0 + 1) dj1;
      acc.x2 <- cell_init b (j0 + 2) dj2;
      acc.x3 <- cell_init b (j0 + 3) dj3;
      let m0 = b.mb + (j0 * b.mjs) in
      if b.st.shared_left then
        Microkernel.tile4_dot_sum_shared_left ~s:b.sarr ~s0:b.s0 ~ss:b.ss ~m:b.marr ~m0
          ~mjs:b.mjs ~mks:b.mks ~n:nk acc
      else
        Microkernel.tile4_dot_sum_shared_right ~s:b.sarr ~s0:b.s0 ~ss:b.ss ~m:b.marr ~m0
          ~mjs:b.mjs ~mks:b.mks ~n:nk acc;
      cell_store b j0 dj acc.Microkernel.x0;
      cell_store b (j0 + 1) dj1 acc.Microkernel.x1;
      cell_store b (j0 + 2) dj2 acc.Microkernel.x2;
      cell_store b (j0 + 3) dj3 acc.Microkernel.x3;
      j := j0 + 4
    done;
    while !j < hi do
      let j0 = !j in
      let dj = b.db + (j0 * b.dstep) in
      let init = cell_init b j0 dj in
      let mj = b.mb + (j0 * b.mjs) in
      cell_store b j0 dj
        (if b.st.shared_left then
           Microkernel.dot_sum_strided ~a:b.sarr ~a0:b.s0 ~astep:b.ss ~b:b.marr ~b0:mj
             ~bstep:b.mks ~n:nk ~init
         else
           Microkernel.dot_sum_strided ~a:b.marr ~a0:mj ~astep:b.mks ~b:b.sarr ~b0:b.s0
             ~bstep:b.ss ~n:nk ~init);
      j := j0 + 1
    done
  end

let emit_nest ctx ~slot (nest : Optimize.nest) :
    (frame -> int -> int -> unit) -> frame -> int -> int -> unit =
  match nest with
  | Optimize.Tiled_dot
      { dst; dst_ix; guard; init; init_bufs; epi; epi_bufs; vmask; kbound; kmin;
        kext; shared; shared_ix; shared_left; moving; moving_kstride; moving_jbase }
    ->
      let dslot = buf_slot ctx dst
      and sslot = buf_slot ctx shared
      and mslot = buf_slot ctx moving in
      let fdb, fds = compile_affine ctx dst_ix in
      let fkm = as_int (compile_expr ctx kmin) in
      let fkn = as_int (compile_expr ctx kext) in
      let fsb, fss = compile_affine ctx shared_ix in
      let fmjb, fmjs = compile_affine ctx moving_jbase in
      let fmks = as_int (compile_expr ctx moving_kstride) in
      let guard_c = Array.of_list (List.map (compile_cond ctx) guard) in
      let vmask_c = Array.of_list (List.map (compile_cond ctx) vmask) in
      let fkbound = Option.map (fun e -> as_int (compile_expr ctx e)) kbound in
      let init_k =
        match init with
        | None -> I_cell
        | Some (Expr.Float c) -> I_const c
        | Some e -> I_expr (as_float (compile_expr ctx e))
      in
      (* an [Epi_store] compiles like the generic [Store] (same
         bounds-check message) *)
      let epi_k =
        match epi with
        | None -> E_none
        | Some (Optimize.Epi_scale c) -> E_scale c
        | Some (Optimize.Epi_store (Stmt.Store { buf; index; value })) ->
            let bslot = buf_slot ctx buf in
            let bname = Var.mangled buf in
            let fi = as_int (compile_expr ctx index) in
            let fv = as_float (compile_expr ctx value) in
            E_store
              (fun fr ->
                let a = Array.unsafe_get fr.fbufs bslot in
                let i = fi fr in
                if i < 0 || i >= Array.length a then
                  err "store %s[%d] out of bounds (len %d)" bname i (Array.length a)
                else Array.unsafe_set a i (fv fr))
        | Some (Optimize.Epi_store _) -> err "nest epilogue must be a store"
      in
      (* buffers the init / epilogue read: if any is bound to the same
         array as the destination at runtime, fall back *)
      let extra_slots =
        Array.of_list
          (List.sort_uniq compare (List.map (buf_slot ctx) (init_bufs @ epi_bufs)))
      in
      let st =
        { slot; init_k; epi_k; shared_left; dname = Var.mangled dst;
          sname = Var.mangled shared; mname = Var.mangled moving }
      in
      note_variant
        (if guard = [] && vmask = [] && kbound = None && epi = None then "dot.tile4"
         else "dot.tile4_split");
      fun fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let sarr = Array.unsafe_get fr.fbufs sslot in
        let marr = Array.unsafe_get fr.fbufs mslot in
        let nk = fkn fr in
        if nk <= 0 || darr == sarr || darr == marr || aliases fr darr extra_slots 0 then
          fall_back fallback fr m n
        else begin
          let dstep = fds fr in
          if dstep = 0 then fall_back fallback fr m n
          else begin
            let ghi = narrow guard_c fr m (m + n) in
            if m < ghi then begin
              let mk = fkm fr in
              let ss = fss fr in
              let mks = fmks fr in
              (* effective reduction length under a [k < bound] mask *)
              let nk_eff =
                match fkbound with
                | None -> nk
                | Some fb ->
                    let e = fb fr - mk in
                    if e < 0 then 0 else if e > nk then nk else e
              in
              let b =
                { st; fr; darr; db = fdb fr; dstep; sarr; s0 = fsb fr + (mk * ss); ss; marr;
                  mb = fmjb fr + (mk * mks); mjs = fmjs fr; mks; nk_eff; tail = nk - nk_eff }
              in
              let vhi = Int.max m (narrow vmask_c fr m ghi) in
              nest_dots b m vhi;
              nest_zeros b vhi ghi
            end
          end
        end

(* [emit_softmax_row ctx sm fallback] runs one classified softmax row
   (opt >= 3) as Microkernel.softmax_row: one pass for the max, one
   computing each exp once, one dividing, then the zero-fill.  The
   destination row doubles as the exp cache, so the row needs no
   scratch and makes no arena acquire.
   Endpoint bounds checks once per row, load range first as in the
   generic copy loop.  Falls back to the generic four loops (through
   [fallback], the compiled [Alloc]) when the destination array is the
   source (the cache would overwrite inputs), when its stride is zero,
   or when the column counts are outside the shape the kernel
   reproduces: [0 <= cols <= row_size] and [cols <= cols_padded]. *)
let emit_softmax_row ctx (sm : Optimize.softmax_row) (fallback : frame -> unit) :
    frame -> unit =
  let { Optimize.row_size; cols; cols_padded; src; src_ix; dst; dst_ix; max_init; den_init; fill } =
    sm
  in
  let sslot = buf_slot ctx src and dslot = buf_slot ctx dst in
  let sname = Var.mangled src and dname = Var.mangled dst in
  let fsize = as_int (compile_expr ctx row_size) in
  let fcols = as_int (compile_expr ctx cols) in
  let fpad = as_int (compile_expr ctx cols_padded) in
  let fsb, fss = compile_affine ctx src_ix in
  let fdb, fds = compile_affine ctx dst_ix in
  note_variant "softmax.row";
  fun fr ->
    let sarr = Array.unsafe_get fr.fbufs sslot in
    let darr = Array.unsafe_get fr.fbufs dslot in
    let size = fsize fr in
    let cols = fcols fr in
    let npad = fpad fr in
    let dstep = fds fr in
    if sarr == darr || dstep = 0 || cols < 0 || cols > size || npad < cols then begin
      Obs.Metrics.incr mk_fallback_c;
      fallback fr
    end
    else begin
      let sstep = fss fr in
      let s0 = fsb fr in
      let d0 = fdb fr in
      if cols > 0 then check_lin ~what:"load" ~name:sname sarr s0 (s0 + ((cols - 1) * sstep));
      if npad > 0 then check_lin ~what:"store" ~name:dname darr d0 (d0 + ((npad - 1) * dstep));
      Microkernel.softmax_row ~src:sarr ~s0 ~sstep ~dst:darr ~d0 ~dstep ~n:cols ~npad
        ~max_init ~den_init ~fill
    end

(* ------------------------------------------------------------------ *)
(* Per-iteration weight estimator for parallel chunk balancing: static
   expression costs from the analytic cost model, dynamic trip counts by
   evaluating loop bounds on the frame (inner loop variables pinned to
   their first iteration — the estimate guides chunking only, so an
   approximation is fine).  Compiled with its own scalar slots, so it
   cannot clobber the kernel's state.  Any compile- or eval-time failure
   falls back to uniform weights. *)
let rec est_stmt ctx (s : Stmt.t) : frame -> int =
  let ecost e = max 1 (int_of_float (Cost_model.total (Cost_model.expr_counts e))) in
  match s with
  | Stmt.Store { index; value; _ } | Stmt.Reduce_store { index; value; _ } ->
      let c = ecost index + ecost value in
      fun _ -> c
  | Stmt.Eval e ->
      let c = ecost e in
      fun _ -> c
  | Stmt.Nop -> fun _ -> 1
  | Stmt.Seq l ->
      let es = Array.of_list (List.map (est_stmt ctx) l) in
      fun fr -> Array.fold_left (fun acc f -> acc + f fr) 0 es
  | Stmt.If (c, a, b) ->
      (* both branches, statically: the skew this estimator exists to fix
         comes from ragged trip counts, not guard outcomes *)
      let cc = ecost c in
      let ea = est_stmt ctx a in
      let eb = match b with Some b -> est_stmt ctx b | None -> fun _ -> 0 in
      fun fr -> cc + ea fr + eb fr
  | Stmt.Let_stmt (v, e, body) -> (
      match compile_expr ctx e with
      | CInt f ->
          with_var ctx v TInt @@ fun slot ->
          let eb = est_stmt ctx body in
          fun fr ->
            Array.unsafe_set fr.ints slot (f fr);
            eb fr
      | CFloat _ | CBool _ -> est_stmt ctx body)
  | Stmt.Alloc { body; _ } -> est_stmt ctx body
  | Stmt.For { var; min; extent; body; _ } ->
      let fm = as_int (compile_expr ctx min) in
      let fn = as_int (compile_expr ctx extent) in
      with_var ctx var TInt @@ fun slot ->
      let eb = est_stmt ctx body in
      fun fr ->
        let m = fm fr in
        let n = fn fr in
        if n <= 0 then 1
        else begin
          Array.unsafe_set fr.ints slot m;
          1 + (n * eb fr)
        end

let compile_est ctx (s : Stmt.t) : (frame -> int) option =
  match est_stmt ctx s with e -> Some e | exception Error _ -> None

(* [par_ok] tracks which Parallel loops run on the pool: those reachable
   through For / Let_stmt / Seq only.  Bodies of parallel loops, If
   branches and Alloc bodies compile with par_ok = false and run serially,
   so a pool never nests and the disjoint-writes obligation of a Parallel
   binding is only ever relied on for top-level loop structure. *)
let rec compile_stmt ctx ~par_ok (s : Stmt.t) : frame -> unit =
  match s with
  | For { var; min; extent; kind; body } -> (
      let fm = as_int (compile_expr ctx min) in
      let fn = as_int (compile_expr ctx extent) in
      let par = par_ok && (match kind with Stmt.Parallel -> true | _ -> false) in
      with_var ctx var TInt @@ fun slot ->
      let micro =
        if (not par) && ctx.opt >= 2 then
          Option.map (emit_inner ctx) (Optimize.classify_inner ~var body)
        else None
      in
      let tiled =
        if (not par) && ctx.opt >= 3 && Option.is_none micro then
          match Optimize.classify_nest ~var body with
          | Some nest -> (
              (* compiling the substituted nest expressions can hit a
                 type the generic path would never force (e.g. a peeled
                 let of the wrong kind) — never fail the whole compile
                 for a missed tiling opportunity *)
              try Some (emit_nest ctx ~slot nest) with Error _ -> None)
          | _ -> None
        else None
      in
      let cbody = compile_stmt ctx ~par_ok:(par_ok && not par) body in
      let serial fr m n =
        for i = m to m + n - 1 do
          Array.unsafe_set fr.ints slot i;
          cbody fr
        done
      in
      if par then begin
        let est = compile_est ctx body in
        fun fr ->
          let m = fm fr in
          let n = fn fr in
          match fr.pool with
          | Some p when n > 1 && Pool.parallelism p > 1 -> run_parallel p fr slot m n ?est cbody
          | _ -> serial fr m n
      end
      else
        match micro with
        | Some mk ->
            let mk = mk serial in
            fun fr ->
              let m = fm fr in
              let n = fn fr in
              if n > 0 then mk fr m n
        | None when Option.is_some tiled ->
            let tk = Option.get tiled serial in
            fun fr ->
              let m = fm fr in
              let n = fn fr in
              if n > 0 then tk fr m n
        | None -> (
            (* strength reduction (opt >= 1): an innermost store loop whose
               index is affine in the loop variable becomes a running-offset
               loop — the value closure still runs per element (arbitrary
               expression), but the address tree is evaluated once and the
               per-element bounds checks collapse to two endpoint checks. *)
            let sred =
              if ctx.opt >= 1 then
                match body with
                | Stmt.Store { buf; index; value } ->
                    Option.map (fun ax -> (None, buf, ax, value)) (Optimize.affine_in var index)
                | Stmt.Reduce_store { buf; index; value; op } ->
                    Option.map
                      (fun ax -> (Some op, buf, ax, value))
                      (Optimize.affine_in var index)
                | _ -> None
              else None
            in
            match sred with
            | Some (op, buf, ax, value) -> (
                let bslot = buf_slot ctx buf in
                let bname = Var.mangled buf in
                let fbase, fstep = compile_affine ctx ax in
                let fv = as_float (compile_expr ctx value) in
                match op with
                | None ->
                    fun fr ->
                      let m = fm fr in
                      let n = fn fr in
                      if n > 0 then begin
                        let a = Array.unsafe_get fr.fbufs bslot in
                        let step = fstep fr in
                        let i0 = fbase fr + (m * step) in
                        check_lin ~what:"store" ~name:bname a i0 (i0 + ((n - 1) * step));
                        let ix = ref i0 in
                        for i = m to m + n - 1 do
                          Array.unsafe_set fr.ints slot i;
                          Array.unsafe_set a !ix (fv fr);
                          ix := !ix + step
                        done
                      end
                | Some rop ->
                    let combine = combine_of rop in
                    fun fr ->
                      let m = fm fr in
                      let n = fn fr in
                      if n > 0 then begin
                        let a = Array.unsafe_get fr.fbufs bslot in
                        let step = fstep fr in
                        let i0 = fbase fr + (m * step) in
                        check_lin ~what:"reduce_store" ~name:bname a i0 (i0 + ((n - 1) * step));
                        let ix = ref i0 in
                        for i = m to m + n - 1 do
                          Array.unsafe_set fr.ints slot i;
                          (* value first, then the current cell — interpreter order *)
                          let x = fv fr in
                          Array.unsafe_set a !ix (combine (Array.unsafe_get a !ix) x);
                          ix := !ix + step
                        done
                      end)
            | None ->
                fun fr ->
                  let m = fm fr in
                  let n = fn fr in
                  serial fr m n))
  | Let_stmt (v, e, body) -> (
      let cv = compile_expr ctx e in
      let ty = match cv with CInt _ -> TInt | CFloat _ -> TFloat | CBool _ -> TBool in
      with_var ctx v ty @@ fun slot ->
      let cbody = compile_stmt ctx ~par_ok body in
      match cv with
      | CInt f ->
          fun fr ->
            Array.unsafe_set fr.ints slot (f fr);
            cbody fr
      | CFloat f ->
          fun fr ->
            Array.unsafe_set fr.floats slot (f fr);
            cbody fr
      | CBool f ->
          fun fr ->
            Array.unsafe_set fr.bools slot (f fr);
            cbody fr)
  | Store { buf = v; index; value } ->
      let slot = buf_slot ctx v in
      let name = Var.mangled v in
      let fi = as_int (compile_expr ctx index) in
      let fv = as_float (compile_expr ctx value) in
      fun fr ->
        let a = Array.unsafe_get fr.fbufs slot in
        let i = fi fr in
        if i < 0 || i >= Array.length a then
          err "store %s[%d] out of bounds (len %d)" name i (Array.length a)
        else Array.unsafe_set a i (fv fr)
  | Reduce_store { buf = v; index; value; op } -> (
      let slot = buf_slot ctx v in
      let name = Var.mangled v in
      let fi = as_int (compile_expr ctx index) in
      let fv = as_float (compile_expr ctx value) in
      let reduce combine fr =
        let a = Array.unsafe_get fr.fbufs slot in
        let i = fi fr in
        if i < 0 || i >= Array.length a then
          err "reduce_store %s[%d] out of bounds (len %d)" name i (Array.length a)
        else
          (* value first, then the current cell — interpreter order *)
          let x = fv fr in
          let cur = Array.unsafe_get a i in
          Array.unsafe_set a i (combine cur x)
      in
      match op with
      | Stmt.Sum ->
          fun fr ->
            let a = Array.unsafe_get fr.fbufs slot in
            let i = fi fr in
            if i < 0 || i >= Array.length a then
              err "reduce_store %s[%d] out of bounds (len %d)" name i (Array.length a)
            else
              let x = fv fr in
              Array.unsafe_set a i (Array.unsafe_get a i +. x)
      | Stmt.Prod -> reduce ( *. )
      | Stmt.Rmax -> reduce Float.max
      | Stmt.Rmin -> reduce Float.min)
  | If (c, a, b) -> (
      let fc = as_bool (compile_expr ctx c) in
      let ca = compile_stmt ctx ~par_ok:false a in
      match Option.map (compile_stmt ctx ~par_ok:false) b with
      | None -> fun fr -> if fc fr then ca fr
      | Some cb -> fun fr -> if fc fr then ca fr else cb fr)
  | Seq l -> (
      match List.map (compile_stmt ctx ~par_ok) l with
      | [] -> fun _ -> ()
      | [ c ] -> c
      | [ c1; c2 ] ->
          fun fr ->
            c1 fr;
            c2 fr
      | cs ->
          let arr = Array.of_list cs in
          let n = Array.length arr in
          fun fr ->
            for i = 0 to n - 1 do
              (Array.unsafe_get arr i) fr
            done)
  | Alloc { buf = v; size; body } -> (
      let fn = as_int (compile_expr ctx size) in
      let slot = buf_slot ~internal:true ctx v in
      let cbody = compile_stmt ctx ~par_ok:false body in
      (* Scratch comes from the process-wide arena, rounded up to a
         power-of-two size class.  Exact-length keying here was a miss
         storm under the batch-former: row-length-sized scratch (e.g. the
         softmax row buffer) takes a different exact size for every
         distinct length a mega-batch mixes in, so each composition kept
         allocating fresh storage; class rounding makes those sizes
         converge onto the same closed class set the serving buffers use.
         Zero-fill and the negative-size error are exactly those of the
         [Array.make n 0.0] this replaces; a correct kernel never
         addresses the class-rounding tail. *)
      let generic fr =
        let n = fn fr in
        let a = Buffer.Arena.acquire_class Buffer.Arena.global n in
        Array.unsafe_set fr.fbufs slot a;
        let release () =
          Array.unsafe_set fr.fbufs slot [||];
          Buffer.Arena.release Buffer.Arena.global a
        in
        (try cbody fr
         with e ->
           release ();
           raise e);
        release ()
      in
      match if ctx.opt >= 3 then Optimize.classify_softmax_row s else None with
      | Some sm -> emit_softmax_row ctx sm generic
      | None -> generic)
  | Eval e -> (
      match compile_expr ctx e with
      | CInt f -> fun fr -> ignore (f fr)
      | CFloat f -> fun fr -> ignore (f fr)
      | CBool f -> fun fr -> ignore (f fr))
  | Nop -> fun _ -> ()

(* ------------------------------------------------------------------ *)
(* Public API *)

let compile ?(opt = Optimize.O0) (s : Stmt.t) : compiled =
  let s = match opt with Optimize.O0 -> s | _ -> fst (Optimize.run ~level:opt s) in
  let ctx = new_ctx ~opt:(Optimize.int_of_level opt) () in
  let entry = compile_stmt ctx ~par_ok:true s in
  { c_layout = finalize ctx; c_entry = entry }

let slot_count c = c.c_layout.n_ints + c.c_layout.n_floats + c.c_layout.n_bools

let frame (c : compiled) : frame =
  let l = c.c_layout in
  let nbufs = Array.length l.buf_names in
  {
    layout = l;
    entry = c.c_entry;
    ints = Array.make (max 1 l.n_ints) 0;
    floats = Array.make (max 1 l.n_floats) 0.0;
    bools = Array.make (max 1 l.n_bools) false;
    fbufs = Array.make (max 1 nbufs) [||];
    buf_bound = Array.make (max 1 nbufs) false;
    ufuns = Array.make (max 1 (Array.length l.ufun_names)) U_unbound;
    pool = None;
  }

let bind_buf fr (v : Var.t) (b : Buffer.t) =
  let slot =
    match Hashtbl.find_opt fr.layout.buf_slots v.Var.id with
    | Some s -> Some s
    | None -> (
        (* alpha-equivalent rebind: same display name, fresh var id *)
        match Hashtbl.find_opt fr.layout.buf_by_name (Var.name v) with
        | Some s when s >= 0 -> Some s
        | _ -> None)
  in
  match slot with
  | None -> () (* this kernel never touches that tensor *)
  | Some slot -> (
      match b with
      | Buffer.F a ->
          fr.fbufs.(slot) <- a;
          fr.buf_bound.(slot) <- true
      | Buffer.I _ -> err "engine: integer buffer %s unsupported" (Var.mangled v))

let bind_ufun_binding fr name u =
  match Hashtbl.find_opt fr.layout.ufun_slots name with
  | None -> () (* this kernel never calls that ufun *)
  | Some slot -> fr.ufuns.(slot) <- u

let bind_ufun_table fr name a = bind_ufun_binding fr name (U_table a)
let bind_ufun1 fr name f = bind_ufun_binding fr name (U_fn f)
let bind_ufun_const fr name n = bind_ufun_binding fr name (U_const n)
let bind_ufun fr name f = bind_ufun_binding fr name (U_gen f)

let run ?pool (fr : frame) : unit =
  let l = fr.layout in
  Array.iteri
    (fun i ext -> if ext && not fr.buf_bound.(i) then err "unbound buffer %s" l.buf_names.(i))
    l.buf_external;
  Array.iteri
    (fun i name ->
      match fr.ufuns.(i) with
      | U_unbound -> err "unbound uninterpreted function %s" name
      | _ -> ())
    l.ufun_names;
  fr.pool <- pool;
  Fun.protect ~finally:(fun () -> fr.pool <- None) (fun () -> fr.entry fr)
