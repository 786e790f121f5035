(** Reference interpreter for the lowered IR — the ground truth of the test
    suite.  Executes kernels scalar-by-scalar over real buffers with bounds
    checking; GPU/parallel bindings run sequentially (bindings only matter
    to the machine model).  It is the only component that counts scalar
    work (the [env] statistics below); {!Engine} reproduces its outputs
    bitwise but counts nothing. *)

type value = VInt of int | VFloat of float | VBool of bool

exception Error of string

val to_int : value -> int
val to_float : value -> float
val to_bool : value -> bool

(** Uninterpreted-function binding: [U1] is the allocation-free fast path
    for the (overwhelmingly common) 1-argument ufuns.  It carries a
    last-lookup [(arg, result)] cache — ragged loop nests re-read the same
    offset many times in a row; hits are counted in the [ufun_cache.hit]
    metric while the [loads]/[indirect] statistics stay unchanged, so
    cached and uncached runs remain counter-identical. *)
type ufun = U1 of (int -> int) * (int * int) option ref | UN of (int list -> int)

type env = {
  mutable vars : value Ir.Var.Map.t;
  mutable bufs : Buffer.t Ir.Var.Map.t;
  ufuns : (string, ufun) Hashtbl.t;
  mutable loads : int;  (** statistics: scalar loads executed *)
  mutable stores : int;
  mutable flops : int;
  mutable indirect : int;
      (** uninterpreted-function (prelude table) accesses, also in [loads] *)
  mutable guards : int;  (** bound-guard conditions evaluated *)
  mutable guard_hits : int;  (** guard conditions that held (body ran) *)
}

val create : unit -> env
val bind_buf : env -> Ir.Var.t -> Buffer.t -> unit
val bind_var : env -> Ir.Var.t -> value -> unit
val bind_ufun : env -> string -> (int list -> int) -> unit

(** 1-argument ufun on the allocation-free fast path. *)
val bind_ufun1 : env -> string -> (int -> int) -> unit

(** 1-argument ufun backed by an int array (bounds-checked). *)
val bind_ufun_array : env -> string -> int array -> unit

(** Abramowitz–Stegun 7.1.26 [erf] approximation — shared with {!Engine}
    so both execution paths are bit-identical. *)
val erf_approx : float -> float

val eval : env -> Ir.Expr.t -> value
val exec : env -> Ir.Stmt.t -> unit

(** Add the environment's statistics counters into the process-wide
    {!Obs.Metrics} registry under [interp.loads], [interp.stores],
    [interp.flops], [interp.indirect], [interp.guards] and
    [interp.guard_hits].  Call once per run. *)
val flush_metrics : env -> unit

(** Snapshot of the statistics counters as a fixed-order association list
    ([loads], [stores], [flops], [indirect], [guards], [guard_hits]) — for
    structural comparison of whole runs in differential tests. *)
val stats : env -> (string * int) list
